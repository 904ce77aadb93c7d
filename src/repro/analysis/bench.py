"""Persistent benchmark harness: pinned corpus, snapshots, regressions.

``repro bench`` runs a **pinned corpus** (fixed topologies, seeds and
capacities — so numbers are comparable across commits) through the
registered solvers, times the flat-array hot paths against their
preserved object-graph baselines (:mod:`repro.algorithms.reference`),
and persists everything as a machine-readable ``BENCH_<date>.json``
snapshot.  Snapshots are compared against the previous one (or a
committed baseline) with a regression threshold, so performance has a
*trajectory*, not just a feeling — the same discipline the
continent-scale routing systems in PAPERS.md apply to their solvers.

Hardware normalisation
----------------------
Absolute wall times are machine-dependent, so every snapshot embeds a
``calibration_s`` measurement — a fixed pure-Python workload timed on
the same interpreter just before the corpus runs.  Cross-snapshot
comparison uses **calibration-normalised** times: a solver regresses
only if its time grew relative to how fast the machine runs plain
Python, which makes the committed CI baseline meaningful on runners
with different clock speeds.

The flagship corpus entry is a 220-node Multiple-NoD tree on which the
flat-path ``multiple-nod-dp`` must hold a healthy speedup over the
object-graph baseline with bit-identical placements (see
``docs/performance.md`` and the equivalence property tests in
``tests/test_arrays.py``).
"""

from __future__ import annotations

import json
import math
import platform
import sys
import time
from datetime import date, datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from ..core.arrays import flat_cache_stats
from ..core.instance import ProblemInstance
from ..core.policies import Policy

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "bench_corpus",
    "run_bench",
    "write_snapshot",
    "load_snapshot",
    "find_baseline",
    "compare_snapshots",
    "render_bench_table",
]

BENCH_SCHEMA_VERSION = 1

#: Snapshot filename prefix; ``repro bench`` writes ``BENCH_<date>.json``.
BENCH_PREFIX = "BENCH_"

#: (registered solver, reference implementation) pairs timed head-to-head.
_REFERENCE_OF = {
    "multiple-nod-dp": "multiple_nod_dp_reference",
    "single-nod": "single_nod_reference",
    "multiple-greedy": "multiple_greedy_reference",
}

def _reference_fn(solver: str) -> Optional[Callable[[ProblemInstance], object]]:
    name = _REFERENCE_OF.get(solver)
    if name is None:
        return None
    from ..algorithms import reference

    return getattr(reference, name)


def bench_corpus(profile: str = "full") -> List[Tuple[str, ProblemInstance, List[str]]]:
    """The pinned benchmark corpus for ``profile``.

    Parameters
    ----------
    profile:
        ``"full"`` — every pinned instance; ``"quick"`` — the two
        220-node NoD flagships (the CI configuration); ``"smoke"`` —
        tiny instances of the same shapes, for the test suite.

    Returns
    -------
    ``[(name, instance, solvers), ...]`` — deterministic: topologies,
    seeds and capacities are pinned so snapshots stay comparable.

    Raises
    ------
    ValueError
        On an unknown profile name.
    """
    from ..instances import random_binary_tree, random_tree

    if profile == "smoke":
        nod_multi = random_tree(
            8, 16, capacity=8, dmax=None, policy=Policy.MULTIPLE,
            max_arity=3, seed=3,
        )
        return [
            ("smoke-nod-multi", nod_multi, ["multiple-nod-dp", "multiple-greedy"]),
            ("smoke-nod-single", nod_multi.with_policy(Policy.SINGLE), ["single-nod"]),
        ]
    if profile not in ("full", "quick"):
        raise ValueError(f"unknown bench profile {profile!r}")

    # The 220-node flagship: deep-ish ternary topology, W=30 — the
    # regime where the DP tables are long enough for the kernels to
    # matter.
    nod220 = random_tree(
        110, 110, capacity=30, dmax=None, policy=Policy.MULTIPLE,
        max_arity=3, seed=3,
    )
    assert len(nod220.tree) == 220, "pinned corpus drifted"
    corpus: List[Tuple[str, ProblemInstance, List[str]]] = [
        ("nod220-multi", nod220, ["multiple-nod-dp", "multiple-greedy"]),
        ("nod220-single", nod220.with_policy(Policy.SINGLE),
         ["single-nod", "greedy-packing"]),
    ]
    if profile == "full":
        d220 = random_tree(
            70, 150, capacity=20, dmax=6.0, policy=Policy.SINGLE,
            max_arity=4, seed=7,
        )
        bin121 = random_binary_tree(
            60, 61, capacity=10, dmax=None, policy=Policy.MULTIPLE,
            request_range=(1, 8), seed=11,
        )
        corpus += [
            ("d220-single", d220, ["single-gen", "greedy-packing"]),
            ("bin121-multi", bin121, ["multiple-bin", "multiple-greedy"]),
        ]
    return corpus


def _calibrate() -> float:
    """Time a fixed pure-Python workload (machine-speed yardstick).

    Returns
    -------
    float
        Best-of-3 seconds for a pinned integer loop.  Snapshot
        comparisons divide solver times by this, so a slower CI runner
        does not read as a solver regression.
    """
    def work() -> int:
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        return acc

    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - t0)
    return best


def _time_best(fn: Callable[[], object], repeats: int) -> Tuple[float, object]:
    best = math.inf
    result: object = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best = elapsed
    return best, result


def run_bench(profile: str = "full", repeats: Optional[int] = None) -> Dict:
    """Run the pinned corpus and return a snapshot dict.

    Parameters
    ----------
    profile:
        Corpus profile (see :func:`bench_corpus`).
    repeats:
        Timing repetitions per (instance, solver); the best run is
        recorded.  Defaults to 3 for ``full``, 1 otherwise.

    Returns
    -------
    dict
        The snapshot: per-solver ``entries`` (wall time, node
        throughput), flat-vs-reference ``comparisons`` (speedup +
        bit-identity), FlatTree ``flat_cache`` counter deltas, the
        ``calibration_s`` yardstick and environment metadata.  Pass it
        to :func:`write_snapshot` / :func:`compare_snapshots`.
    """
    from ..runner.registry import get_solver

    if repeats is None:
        repeats = 3 if profile == "full" else 1
    corpus = bench_corpus(profile)
    calibration = _calibrate()
    cache_before = flat_cache_stats()

    entries: List[Dict] = []
    comparisons: List[Dict] = []
    for name, inst, solvers in corpus:
        n_nodes = len(inst.tree)
        for solver in solvers:
            spec = get_solver(solver)
            try:
                wall, placement = _time_best(lambda: spec.fn(inst), repeats)
            except Exception as exc:  # noqa: BLE001 — recorded, not raised
                entries.append({
                    "instance": name, "solver": solver, "n_nodes": n_nodes,
                    "status": "error", "error": f"{type(exc).__name__}: {exc}",
                })
                continue
            entries.append({
                "instance": name,
                "solver": solver,
                "n_nodes": n_nodes,
                "status": "ok",
                "wall_s": wall,
                "repeats": repeats,
                "throughput_nps": n_nodes / wall if wall > 0 else None,
                "n_replicas": placement.n_replicas,
            })
            ref = _reference_fn(solver)
            if ref is not None:
                ref_wall, ref_placement = _time_best(lambda: ref(inst), repeats)
                comparisons.append({
                    "instance": name,
                    "solver": solver,
                    "flat_s": wall,
                    "reference_s": ref_wall,
                    "speedup": ref_wall / wall if wall > 0 else None,
                    "identical": placement == ref_placement,
                })

    cache_after = flat_cache_stats()
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "profile": profile,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "calibration_s": calibration,
        "entries": entries,
        "comparisons": comparisons,
        "flat_cache": {
            k: cache_after[k] - cache_before[k] for k in cache_after
        },
    }


# ----------------------------------------------------------------------
# Snapshot persistence and comparison
# ----------------------------------------------------------------------
def write_snapshot(snapshot: Dict, out_dir: str = ".", label: Optional[str] = None) -> Path:
    """Persist ``snapshot`` as ``BENCH_<label>.json`` under ``out_dir``.

    Parameters
    ----------
    snapshot:
        A dict from :func:`run_bench`.
    out_dir:
        Directory to write into (created if missing).
    label:
        Filename label; defaults to today's ISO date, so one snapshot
        per day is kept and re-running overwrites today's.

    Returns
    -------
    Path
        The written file.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    label = label or date.today().isoformat()
    path = out / f"{BENCH_PREFIX}{label}.json"
    with path.open("w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_snapshot(path) -> Dict:
    """Load a snapshot written by :func:`write_snapshot`."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _baseline_key(path: Path) -> Tuple[int, int, str]:
    """Ordering key for baseline selection: newest dated label wins.

    Date-labelled snapshots (``BENCH_2026-07-26.json``) rank above any
    non-date label (e.g. the committed ``BENCH_baseline.json``, which
    would otherwise shadow every dated snapshot lexicographically) and
    sort chronologically among themselves.
    """
    label = path.stem[len(BENCH_PREFIX):]
    try:
        return (1, date.fromisoformat(label).toordinal(), path.name)
    except ValueError:
        return (0, 0, path.name)


def find_baseline(out_dir: str, exclude: Optional[Path] = None) -> Optional[Path]:
    """The latest ``BENCH_*.json`` under ``out_dir``.

    Parameters
    ----------
    out_dir:
        Directory to scan (non-recursively).
    exclude:
        A path to skip — typically the snapshot just written, so a
        re-run on the same day does not compare against itself.

    Returns
    -------
    The most recent snapshot path: the latest *date-labelled* one if
    any exists, otherwise the lexicographically last of the rest —
    or ``None`` if there is none.
    """
    candidates = list(Path(out_dir).glob(f"{BENCH_PREFIX}*.json"))
    if exclude is not None:
        exclude = Path(exclude).resolve()
        candidates = [p for p in candidates if p.resolve() != exclude]
    return max(candidates, key=_baseline_key) if candidates else None


def snapshot_problems(snapshot: Dict) -> List[str]:
    """Hard failures recorded inside a snapshot (the fail-closed gate).

    Parameters
    ----------
    snapshot:
        A dict from :func:`run_bench`.

    Returns
    -------
    One line per problem: solvers that errored while benching, and
    flat-vs-reference comparisons that were not bit-identical.  Empty
    means the snapshot itself is healthy; ``repro bench`` exits
    non-zero otherwise, so a solver that starts *crashing* on the
    pinned corpus can never slip through as "no regression".
    """
    problems: List[str] = []
    for e in snapshot.get("entries", []):
        if e.get("status") != "ok":
            problems.append(
                f"{e['solver']} errored on {e['instance']}: "
                f"{e.get('error', 'unknown error')}"
            )
    for c in snapshot.get("comparisons", []):
        if not c.get("identical"):
            problems.append(
                f"{c['solver']} on {c['instance']} diverged from its "
                "object-graph reference"
            )
    return problems


def compare_snapshots(
    current: Dict,
    baseline: Dict,
    threshold_pct: float = 25.0,
    min_wall_s: float = 0.001,
) -> Tuple[List[str], List[str]]:
    """Compare two snapshots; report per-solver regressions.

    Times are divided by each snapshot's ``calibration_s`` before
    comparison, so baselines recorded on different hardware compare
    meaningfully.

    Parameters
    ----------
    current, baseline:
        Snapshot dicts (:func:`run_bench` / :func:`load_snapshot`).
    threshold_pct:
        A solver regresses when its normalised time exceeds the
        baseline's by more than this percentage.
    min_wall_s:
        Entries faster than this are never flagged — sub-millisecond
        timings are jitter, not signal.  The quick flagship's
        ``multiple-nod-dp`` entry (~2 ms) must stay above it.

    Returns
    -------
    ``(lines, regressions)`` — human-readable comparison lines, and
    the subset describing regressions beyond the threshold (empty =
    pass).  A (instance, solver) pair the baseline measured ``ok``
    that is missing or no longer ``ok`` in ``current`` counts as a
    regression too — the gate fails closed, it cannot be satisfied by
    a solver that stopped running.  A ``batch_throughput`` section,
    which older snapshots carry, is ignored.
    """
    cal_cur = float(current.get("calibration_s") or 1.0)
    cal_base = float(baseline.get("calibration_s") or 1.0)
    base_by_key = {
        (e["instance"], e["solver"]): e
        for e in baseline.get("entries", [])
        if e.get("status") == "ok"
    }
    lines: List[str] = []
    regressions: List[str] = []
    seen_ok = set()
    for e in current.get("entries", []):
        if e.get("status") != "ok":
            continue
        key = (e["instance"], e["solver"])
        b = base_by_key.get(key)
        if b is None:
            continue
        seen_ok.add(key)
        norm_cur = e["wall_s"] / cal_cur
        norm_base = b["wall_s"] / cal_base
        delta_pct = 100.0 * (norm_cur / norm_base - 1.0) if norm_base > 0 else 0.0
        line = (
            f"{e['instance']:<16} {e['solver']:<18} "
            f"{e['wall_s'] * 1e3:8.2f}ms vs {b['wall_s'] * 1e3:8.2f}ms "
            f"(normalised {delta_pct:+6.1f}%)"
        )
        if delta_pct > threshold_pct and e["wall_s"] >= min_wall_s:
            line += "  << REGRESSION"
            regressions.append(line)
        lines.append(line)
    for key in sorted(base_by_key.keys() - seen_ok):
        line = (
            f"{key[0]:<16} {key[1]:<18} measured ok in the baseline but "
            "missing or not ok now  << REGRESSION"
        )
        regressions.append(line)
        lines.append(line)

    return lines, regressions


def render_bench_table(snapshot: Dict) -> str:
    """Human-readable table of a snapshot's entries and comparisons."""
    out: List[str] = []
    out.append(
        f"{'instance':<16} {'solver':<18} {'nodes':>6} {'wall':>10} "
        f"{'nodes/s':>10} {'|R|':>5}"
    )
    for e in snapshot.get("entries", []):
        if e.get("status") != "ok":
            out.append(
                f"{e['instance']:<16} {e['solver']:<18} "
                f"{e.get('n_nodes', 0):>6} {'—':>10} {'—':>10} {'—':>5}  "
                f"({e.get('error', 'error')})"
            )
            continue
        out.append(
            f"{e['instance']:<16} {e['solver']:<18} {e['n_nodes']:>6} "
            f"{e['wall_s'] * 1e3:>8.2f}ms {e['throughput_nps']:>10.0f} "
            f"{e['n_replicas']:>5}"
        )
    comps = snapshot.get("comparisons", [])
    if comps:
        out.append("")
        out.append(
            f"{'instance':<16} {'solver':<18} {'flat':>10} {'object':>10} "
            f"{'speedup':>8} {'identical':>9}"
        )
        for c in comps:
            out.append(
                f"{c['instance']:<16} {c['solver']:<18} "
                f"{c['flat_s'] * 1e3:>8.2f}ms {c['reference_s'] * 1e3:>8.2f}ms "
                f"{c['speedup']:>7.2f}x {'yes' if c['identical'] else 'NO':>9}"
            )
    cache = snapshot.get("flat_cache")
    if cache:
        out.append("")
        out.append(
            f"flat-tree cache: {cache.get('compiles', 0)} compiles, "
            f"{cache.get('hits', 0)} hits, "
            f"{cache.get('nodes_compiled', 0)} nodes compiled"
        )
    return "\n".join(out)
