"""Shared machinery of the end-to-end benchmark.

Paths and the import of the program under test, the metric catalogue
(names, units, class slots), the host-speed gauge, per-class latency
statistics, repeated set-up timing, the in-memory span tracer of traced
runs, child-process management for the HTTP workload and the final
result line.

Reference time.  The benchmark runs on a few cores of a shared host
whose speed changes by up to two times, within milliseconds, with what
the other tenants do, and every CPU-bound figure in milliseconds moves
with it.  So between every two operations, with the clock paused, the
benchmark times a fixed loop of its own (:func:`reference_loop`:
interpreter work, JSON, SHA-256 and a NumPy sort, 1.2-1.5 ms on a
2.1 GHz Xeon) and divides each operation's time by the mean of the
loop's times from a second before the operation to a second after it,
or over the whole run when other processes do the work
(:class:`Gauge`).  Latencies are then in ``ref_ms`` (one ``ref_ms`` is
one run of the loop) and throughput in ``1/ref_s`` (operations per
thousand loops).  The loop is the benchmark's code, so a change to the
program moves these figures as it moves the milliseconds, while a
change in the host's speed moves the operation and the loop together
and cancels.  Raw milliseconds are printed beside them, and a traced
run reports them as per-layer metrics.

Nothing here starts a process or touches a file at import time.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import re
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Root of the checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run writes (data dirs, instance files, span artifacts).
WORK = ROOT / ".perfbench_work"

#: Fixed hash seed for every spawned server, so dict/set iteration and
#: therefore the servers' work repeat from run to run.
CHILD_HASH_SEED = "0"

#: How many times a run performs its set-up; ``setup_s`` is the median.
#: A single set-up varies by up to a third from one to the next.
SETUP_REPEATS = 5

#: Status of a per-layer metric a workload never sets.
NOT_ON_PATH = "not on this workload's path"

# -- metric catalogue --------------------------------------------------
#: End-to-end metrics every workload reports (untraced runs).  The three
#: latency slots are filled by one operation class each, so no
#: percentile ever spans two classes; ``SLOTS`` names the class behind
#: each slot per workload.  Times of operations are in reference units
#: (see the module docstring); ``setup_s`` is in seconds.
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_ref_s", "1/ref_s"),
    ("light_p50", "ref_ms"),
    ("heavy_p50", "ref_ms"),
    ("third_p50", "ref_ms"),
]

SLOTS: Dict[str, Dict[str, str]] = {
    "serve-mesh": {"light": "hit", "heavy": "miss", "third": "lean_hit"},
    "replay-mesh": {"light": "sparse", "heavy": "dense", "third": "sparse_dp"},
    "dp-sweep": {"light": "single", "heavy": "mesh", "third": "batch"},
}

#: Per-layer metrics of traced runs: ``(name, unit)``.  A workload that
#: never sets one reports 0 for it, marked :data:`NOT_ON_PATH`.
PER_LAYER: List[Tuple[str, str]] = [
    ("daemon.wire_ms", "ms"),
    ("router.hop_ms", "ms"),
    ("router.retries", "count"),
    ("schema.decode_ms", "ms"),
    ("schema.encode_ms", "ms"),
    ("schema.request_kb", "KB"),
    ("schema.response_kb", "KB"),
    ("fingerprint.instance_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("selection.select_ms", "ms"),
    ("facade.service_ms", "ms"),
    ("facade.overhead_ms", "ms"),
    ("facade.batch_overhead_ms", "ms"),
    ("algorithms.solve_ms", "ms"),
    ("validation.check_ms", "ms"),
    ("bounds.lower_bound_ms", "ms"),
    ("storage.append_ms", "ms"),
    ("storage.wal_bytes", "bytes"),
    ("storage.records_appended", "count"),
    ("storage.snapshots_written", "count"),
    ("events.fold_ms", "ms"),
    ("arrays.compile_ms", "ms"),
    ("arrays.flat_compiles", "count"),
    ("arrays.flat_hits", "count"),
    ("fingerprints.subtree_ms", "ms"),
    ("fingerprints.root_ms", "ms"),
    ("incremental.nodes_recomputed", "count"),
    ("incremental.reuse_fraction", "ratio"),
    ("engine.apply_ms", "ms"),
    ("engine.remainder_ms", "ms"),
    ("engine.fallbacks", "count"),
    ("batched.solve_many_ms", "ms"),
    ("registry.normalise_ms", "ms"),
    ("multiple_nod_dp.solve_ms", "ms"),
    ("multiple_nod_dp.mesh_ms", "ms"),
    ("trace.ops_per_ref_s", "1/ref_s"),
    ("host.ref_ms", "ms"),
    ("wall.ops_per_s", "1/s"),
    ("wall.light_p50_ms", "ms"),
    ("wall.heavy_p50_ms", "ms"),
    ("wall.third_p50_ms", "ms"),
]


class BenchError(RuntimeError):
    """The benchmark could not run (missing program, server never ready)."""


def import_program() -> None:
    """Put the checkout's ``src/`` on ``sys.path`` or fail loudly."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"no program to measure: {SRC / 'repro'} is missing "
            "(run from the root of a full checkout)"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def run_dir(workload: str, seed: int) -> Path:
    """A fresh per-run scratch directory under :data:`WORK`."""
    path = WORK / f"run-{workload}-{seed}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=False)
    return path


# -- statistics ---------------------------------------------------------
def p50(values: Sequence[float]) -> float:
    return statistics.median(values)


def p90(values: Sequence[float]) -> Optional[float]:
    """Nearest-rank p90, or ``None`` with fewer than 100 samples.

    Below 100 samples fewer than ten would lie beyond the p90, which
    then says little about the tail.
    """
    if len(values) < 100:
        return None
    ordered = sorted(values)
    return ordered[max(0, -(-9 * len(ordered) // 10) - 1)]


@dataclass
class OpRecord:
    """One timed operation: its class, client-side start/end and the
    reference loop's time around it (:meth:`Gauge.assign`)."""

    op: int
    cls: str
    t0: float
    t1: float
    weight: int = 1
    failed: bool = False
    ref_ms: float = 1.0

    @property
    def ms(self) -> float:
        return (self.t1 - self.t0) * 1e3

    @property
    def ref(self) -> float:
        """The operation's time in ``ref_ms``."""
        return self.ms / self.ref_ms


@dataclass
class Outcome:
    """Everything one workload run measured and checked."""

    workload: str
    ops: List[OpRecord] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    gauge: "Gauge" = field(default_factory=lambda: Gauge())
    #: Answer-check failures (each also fails its op when it has one).
    problems: List[str] = field(default_factory=list)
    #: Lines printed above the result line (checks, fingerprints).
    notes: List[str] = field(default_factory=list)
    #: Per-layer metric values of a traced run.
    layers: Dict[str, float] = field(default_factory=dict)
    #: Layers whose function is gone (``unmeasured``).
    layer_status: Dict[str, str] = field(default_factory=dict)
    schedule_exhausted: bool = False

    def fail(self, op: Optional[OpRecord], problem: str) -> None:
        if op is not None:
            op.failed = True
        self.problems.append(problem)

    def by_class(self, wall: bool = False) -> Dict[str, List[float]]:
        """Op times per class, in ``ref_ms`` (or in ms with ``wall``)."""
        out: Dict[str, List[float]] = {}
        for rec in self.ops:
            out.setdefault(rec.cls, []).append(rec.ms if wall else rec.ref)
        return out

    @property
    def ops_per_ref_s(self) -> float:
        """Operations per thousand reference loops of summed op time."""
        busy = sum(r.ref for r in self.ops)
        return 1e3 * sum(r.weight for r in self.ops) / busy if busy > 0 else 0.0

    @property
    def ops_per_s(self) -> float:
        """Operations per second of summed op time (wall clock)."""
        busy = sum(r.t1 - r.t0 for r in self.ops)
        return sum(r.weight for r in self.ops) / busy if busy > 0 else 0.0


def self_rss_mb() -> float:
    """Peak resident memory of this process (``ru_maxrss``) in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class RssCheckpoint:
    """``peak_rss_mb``, read once, right after op ``after_op`` completes.

    The services cache every answer, so their resident memory grows with
    the number of operations done.  Reading the peak after a fixed amount
    of work keeps the metric independent of throughput: a faster program
    does more operations in a run but is measured at the same point.  A
    run that never gets that far reads it at the end.
    """

    def __init__(self, read: Callable[[], float], after_op: int) -> None:
        self.read = read
        self.after_op = after_op
        self.value: Optional[float] = None

    def after(self, op: int) -> None:
        if op == self.after_op:
            self.value = self.read()

    def final(self) -> float:
        return self.value if self.value is not None else self.read()


def vm_hwm_mb(pid: int) -> float:
    """Peak resident memory (``VmHWM``) of a live process in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"process {pid} reports no VmHWM")


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid``, read from ``/proc``."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                stat = fh.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        fields = stat[stat.rfind(")") + 2:].split()
        if int(fields[1]) == pid:
            out.append(int(entry))
    return sorted(out)


# -- inputs -------------------------------------------------------------
#: Share of a base instance's clients whose demand a variant redraws.
PERTURBED_SHARE = 0.1


def perturbed(requests: List[int], rng: np.random.Generator, lo: int,
              hi: int) -> List[int]:
    """A fresh demand vector: a random :data:`PERTURBED_SHARE` of the
    clients redraw their demand from ``[lo, hi]`` (always to a new value).

    Every variant is new content, hence a cache miss, while its solve
    cost stays close to the base instance's, so per-op cost does not
    depend on the seed.
    """
    out = list(requests)
    clients = [i for i, r in enumerate(out) if r > 0]
    picked = rng.choice(len(clients),
                        size=max(1, int(PERTURBED_SHARE * len(clients))),
                        replace=False)
    draws = rng.integers(lo, hi + 1, size=len(picked))
    for i, r in zip(picked.tolist(), draws.tolist()):
        c = clients[i]
        out[c] = r if r != out[c] else lo + (r - lo + 1) % (hi - lo + 1)
    return out


# -- host speed -----------------------------------------------------------
_REF_KEYS = np.random.default_rng(0).integers(0, 1 << 30, size=2048)
#: Timed runs of :func:`reference_loop` per reading, after one untimed
#: run that brings its data back into the caches; a reading is their mean.
GAUGE_RUNS = 4
#: An operation's ``ref_ms`` is the mean of the readings taken from this
#: many seconds before it starts to this many seconds after it ends.
GAUGE_WINDOW_S = 1.0


def reference_loop() -> int:
    """Fixed work in the proportions the program's own work has:
    interpreter loops over dicts and ints, then JSON, SHA-256 and a NumPy
    sort.  1.2-1.5 ms on a 2.1 GHz Xeon; it defines the unit ``ref_ms``."""
    table: Dict[int, int] = {}
    acc = 0
    for i in range(1200):
        k = (i * 7919) % 1031
        table[k] = table.get(k, 0) + i
        acc += k & 15
    blob = json.dumps(table)
    acc += len(json.loads(blob))
    acc += hashlib.sha256(blob.encode()).digest()[0]
    return acc + int(np.sort(_REF_KEYS)[0])


class Gauge:
    """The host's speed over time, as the time of :func:`reference_loop`.

    Call :meth:`read` before the first operation and after each one,
    with the clock paused, then :meth:`assign` once the timed phase is
    over.  The host switches between a fast and a slow state within
    milliseconds, so a single reading says little about the next
    operation; the mean of the readings from ``window_s`` seconds before
    an operation to ``window_s`` seconds after it gives the share of
    time the host spent in each state around it, which is what the
    operation paid for.  That holds when the operation runs in this
    process.  When other processes do its work, on whichever core is
    free, only the mean over the whole run relates the two, and
    ``window_s=None`` divides every operation by that.
    """

    def __init__(self, window_s: Optional[float] = GAUGE_WINDOW_S) -> None:
        self.window_s = window_s
        self.readings: List[float] = []
        self.times: List[float] = []

    def read(self) -> None:
        reference_loop()
        t0 = time.perf_counter()
        for _ in range(GAUGE_RUNS):
            reference_loop()
        t1 = time.perf_counter()
        self.times.append((t0 + t1) / 2)
        self.readings.append((t1 - t0) * 1e3 / GAUGE_RUNS)

    def assign(self, ops: Sequence[OpRecord]) -> None:
        """Set each op's ``ref_ms`` from the readings around it."""
        if not self.readings:
            raise BenchError("the gauge was never read")
        if self.window_s is None:
            for rec in ops:
                rec.ref_ms = statistics.fmean(self.readings)
            return
        times = np.asarray(self.times)
        cum = np.concatenate(([0.0], np.cumsum(self.readings)))
        for rec in ops:
            lo = int(np.searchsorted(times, rec.t0 - self.window_s, "left"))
            hi = int(np.searchsorted(times, rec.t1 + self.window_s, "right"))
            if hi <= lo:
                lo, hi = max(0, lo - 1), min(len(self.readings), lo + 1)
            rec.ref_ms = (cum[hi] - cum[lo]) / (hi - lo)


# -- set-up ---------------------------------------------------------------
def repeated_setup(build: Callable[..., object], teardown: Callable[[object], None],
                   times: List[float], *, prepare: Optional[Callable[[], object]] = None,
                   repeats: int = SETUP_REPEATS) -> object:
    """Run ``build`` ``repeats`` times, timing each; keep the last system.

    Every build but the last is torn down untimed, and released before
    the next build starts.  ``prepare``, when given, runs untimed before
    each build and its result is passed to ``build``, so every build
    starts from inputs no earlier build has touched.  Garbage is
    collected before each build, so no build pays for sweeping up the
    one before.  The durations land in ``times`` (the run reports their
    median as ``setup_s``).
    """
    for i in range(repeats):
        args = () if prepare is None else (prepare(),)
        gc.collect()
        t0 = time.perf_counter()
        system = build(*args)
        times.append(time.perf_counter() - t0)
        del args
        if i < repeats - 1:
            teardown(system)
            del system
    return system


def start_clock() -> float:
    """Collect garbage once, then return the timed phase's start time."""
    gc.collect()
    return time.perf_counter()


# -- tracing ------------------------------------------------------------
class Tracer:
    """In-memory spans: name, start, end, parent, op id and class.

    The benchmark records a span around each call it makes into a layer;
    nothing inside the program is instrumented.  Spans stay in memory and
    are written once, by :meth:`write`.
    """

    def __init__(self) -> None:
        self.spans: List[dict] = []

    def record(self, name: str, t0: float, t1: float, *, op: int, cls: str,
               parent: Optional[int] = None) -> int:
        self.spans.append({
            "id": len(self.spans), "name": name, "start": t0, "end": t1,
            "parent": parent, "op": op, "class": cls,
        })
        return len(self.spans) - 1

    def call(self, name: str, fn: Callable, *args, op: int, cls: str,
             parent: Optional[int] = None, **kwargs):
        """Time ``fn(*args, **kwargs)`` as one span; ``(result, ms)``."""
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        t1 = time.perf_counter()
        self.record(name, t0, t1, op=op, cls=cls, parent=parent)
        return result, (t1 - t0) * 1e3

    def open(self, name: str, *, op: int, cls: str,
             parent: Optional[int] = None) -> int:
        """Start a parent span; finish it with :meth:`close`."""
        return self.record(name, time.perf_counter(), 0.0, op=op, cls=cls,
                           parent=parent)

    def close(self, span_id: int) -> None:
        self.spans[span_id]["end"] = time.perf_counter()

    def table(self) -> Dict[Tuple[str, str], Dict[str, float]]:
        """Per (layer, class): span count, total ms and self ms."""
        children: Dict[int, List[dict]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        out: Dict[Tuple[str, str], Dict[str, float]] = {}
        for s in self.spans:
            total = s["end"] - s["start"]
            covered = 0.0
            edge = s["start"]
            for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
                lo, hi = max(c["start"], edge), min(c["end"], s["end"])
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            row = out.setdefault((s["name"], s["class"]),
                                 {"n": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["n"] += 1
            row["total_ms"] += total * 1e3
            row["self_ms"] += (total - covered) * 1e3
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"schema": 1, "spans": self.spans}, fh)


def measured(outcome: Outcome, name: str, values: Sequence[float]) -> None:
    """Store the median of ``values`` as per-layer metric ``name``, or
    mark it ``unmeasured`` (reported as 0) when there are none."""
    if values:
        outcome.layers[name] = p50(values)
    else:
        outcome.layers[name] = 0.0
        outcome.layer_status[name] = "unmeasured"


def layer_function(module: str, attr: str):
    """The public function ``module.attr``, or ``None`` when it is gone.

    Later changes may delete a layer; the traced run then marks the
    layer ``unmeasured`` instead of failing.
    """
    import importlib

    try:
        return getattr(importlib.import_module(module), attr)
    except (ImportError, AttributeError):
        return None


# -- child processes ------------------------------------------------------
def child_env() -> Dict[str, str]:
    """Environment of spawned servers: the checkout's ``src`` on the path,
    a fixed hash seed and no ``REPRO_*`` knobs from the caller."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = CHILD_HASH_SEED
    return env


class Spawned:
    """One ``repro`` CLI child (its own process group), stderr drained.

    ``ready`` is a regex with one group; the constructor blocks until a
    stderr line matches it and exposes the group as :attr:`address`.
    """

    def __init__(self, args: Sequence[str], ready: str, *,
                 timeout: float = 120.0) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *args],
            cwd=str(ROOT), env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        self.lines: List[str] = []
        self._ready = threading.Event()
        self._pattern = re.compile(ready)
        self.address: Optional[str] = None
        self._pump = threading.Thread(target=self._drain, daemon=True)
        self._pump.start()
        if not self._ready.wait(timeout) or self.address is None:
            self.stop()
            raise BenchError(
                f"repro {args[0]} never became ready:\n" + "".join(self.lines[-20:])
            )

    def _drain(self) -> None:
        assert self.proc.stderr is not None
        for line in self.proc.stderr:
            self.lines.append(line)
            if self.address is None:
                match = self._pattern.search(line)
                if match:
                    self.address = match.group(1)
                    self._ready.set()
        self._ready.set()

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self, timeout: float = 90.0, graceful: bool = True) -> None:
        """SIGTERM, wait; then SIGKILL whatever is left of the group.

        ``graceful=False`` skips the SIGTERM (and the server's final
        snapshot), for systems that are thrown away.  Returns once the
        child and the processes it started have ended.
        """
        children = child_pids(self.proc.pid) if self.proc.poll() is None else []
        if graceful and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        wait_ended(children)
        self._pump.join(timeout=10)


def wait_ended(pids: Sequence[int], timeout: float = 10.0) -> None:
    """Wait until each process is gone or a zombie left to its reaper."""
    deadline = time.monotonic() + timeout
    for pid in pids:
        while time.monotonic() < deadline:
            try:
                with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
                    stat = fh.read()
            except OSError:
                break
            if stat[stat.rfind(")") + 2:].split()[0] == "Z":
                break
            time.sleep(0.01)


# -- output ---------------------------------------------------------------
def fmt(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.4g}"


def report(outcome: Outcome, *, seed: int, traced: bool) -> dict:
    """Print the human-readable lines and return the result object."""
    w = outcome.workload
    classes = outcome.by_class()
    wall = outcome.by_class(wall=True)
    attempted = sum(r.weight for r in outcome.ops)
    failed = sum(r.weight for r in outcome.ops if r.failed)
    correct = not outcome.problems and failed == 0 and attempted > 0
    print(f"workload {w}  seed {seed}  trace {int(traced)}")
    for note in outcome.notes:
        print(f"  {note}")
    for problem in outcome.problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    if outcome.schedule_exhausted:
        print("  note: the pre-generated schedule ran out before the time did")
    readings = outcome.gauge.readings
    if len(readings) >= 2:
        q1, q2, q3 = statistics.quantiles(readings, n=4)
        print(f"  reference loop: median {q2:.4g} ms, quartiles {q1:.4g}-{q3:.4g} "
              f"ms over {len(readings)} readings")
    for cls, values in sorted(classes.items()):
        q90 = p90(values)
        tail = f"  {cls}_p90 {fmt(q90)} ref_ms" if q90 is not None else (
            "  (p90 not reported: < 100 samples)")
        print(f"  class {cls:<10} n={len(values):<5} {cls}_p50 {fmt(p50(values))} "
              f"ref_ms ({fmt(p50(wall[cls]))} ms){tail}")
    print(f"  ops_attempted {attempted}  ops_failed {failed}  "
          f"answers {'ok' if correct else 'WRONG'}")
    for slot, cls in SLOTS[w].items():
        if cls not in classes:
            print(f"  CHECK FAILED: class {cls} has no samples")
            correct = False
    metrics: Dict[str, dict] = {}
    if traced:
        outcome.layers["trace.ops_per_ref_s"] = outcome.ops_per_ref_s
        outcome.layers["wall.ops_per_s"] = outcome.ops_per_s
        if readings:
            outcome.layers["host.ref_ms"] = p50(readings)
        for slot, cls in SLOTS[w].items():
            if cls in wall:
                outcome.layers[f"wall.{slot}_p50_ms"] = p50(wall[cls])
        for name, unit in PER_LAYER:
            value = outcome.layers.get(name, 0.0)
            metrics[name] = {"value": value, "unit": unit}
            status = (outcome.layer_status.get(name) if name in outcome.layers
                      else NOT_ON_PATH)
            print(f"  layer {name:<30} {fmt(value):>10} {unit:<7}"
                  + (f"  [{status}]" if status else ""))
    else:
        values = {
            "setup_s": p50(outcome.setup_s) if outcome.setup_s else 0.0,
            "peak_rss_mb": outcome.peak_rss_mb,
            "ops_per_ref_s": outcome.ops_per_ref_s,
        }
        for slot, cls in SLOTS[w].items():
            values[f"{slot}_p50"] = p50(classes[cls]) if cls in classes else 0.0
        print(f"  setup_s {fmt(values['setup_s'])} s (median of "
              + ", ".join(f"{s:.3f}" for s in outcome.setup_s) + ")")
        print(f"  peak_rss_mb {fmt(outcome.peak_rss_mb)} MB  ops_per_ref_s "
              f"{fmt(outcome.ops_per_ref_s)} 1/ref_s ({fmt(outcome.ops_per_s)} 1/s)")
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
        for slot, cls in SLOTS[w].items():
            print(f"  {slot}_p50 = {cls}_p50 {fmt(values[slot + '_p50'])} ref_ms")
    # A run that attempted nothing reports one failed op, never a pass.
    return {"correct": correct, "attempted": max(1, attempted),
            "failed": failed if attempted else 1, "metrics": metrics}
