"""Steadiness check: repeat one workload on two seed sets, then trace it.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --workload replay-mesh --runs 10 \\
        --seed 1 --second-seed 101

Runs ``run.py`` back to back, ``--runs`` times on seeds ``--seed``,
``--seed + 1``, ... and as many times again on seeds from
``--second-seed`` (a set not used while writing a change, to confirm a
claim on fresh seeds), then once traced on ``--seed``.  Per end-to-end
metric it prints, for each set, the median and the spread
``(q3 - q1) / median`` beside the metric's bound from ``BENCHMARK.json``,
and how far the second set's median moved in the metric's worse
direction; then the tracing overhead (the traced run's ``ops_per_ref_s``
against the first set's median).  Exit status 1 when a run fails its
answer checks, a spread of either set exceeds its bound, or the second
set's median is worse than the first's by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"run seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"run seed {seed} failed its checks:\n{proc.stdout[-3000:]}")
    return result


def run_set(workload: str, seeds: List[int], seconds: int) -> Dict[str, List[float]]:
    values: Dict[str, List[float]] = {}
    for seed in seeds:
        result = one_run(workload, seed, seconds, 0)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"  seed {seed}: " + "  ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            flush=True)
    return values


def spread(values: List[float]) -> tuple:
    """``(median, (q3 - q1) / median)`` with ``statistics.quantiles`` quartiles."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--second-seed", type=int, default=101)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2 (quartiles need two values)")

    sets = []
    for start in (args.seed, args.second_seed):
        print(f"{args.workload}: {args.runs} runs from seed {start}", flush=True)
        sets.append(run_set(args.workload, list(range(start, start + args.runs)),
                            args.seconds))
    first, second = sets

    ok = True
    print(f"{'metric':<14} {'median':>10} {'spread':>8} {'2nd med':>10} "
          f"{'2nd spr':>8} {'bound':>6} {'moved':>8}  verdict")
    for meta in bench["end_to_end"]:
        name, bound = meta["name"], meta["bound"]
        med, rel = spread(first[name])
        med2, rel2 = spread(second[name])
        moved = (med2 - med) / med
        if meta["better"] == "higher":
            moved = -moved
        verdict = []
        if max(rel, rel2) > bound:
            verdict.append("SPREAD>BOUND")
        elif max(rel, rel2) > bound / 3:
            verdict.append("spread>bound/3")
        if moved > bound:
            verdict.append("SECOND-SET-WORSE")
        if any(v.isupper() for v in verdict):
            ok = False
        print(f"{name:<14} {med:>10.4g} {rel:>8.4f} {med2:>10.4g} {rel2:>8.4f} "
              f"{bound:>6.3f} {moved:>+8.3f}  {' '.join(verdict) or 'ok'}")

    traced = one_run(args.workload, args.seed, args.seconds, 1)
    t_ops = traced["metrics"]["trace.ops_per_ref_s"]["value"]
    u_ops = statistics.median(first["ops_per_ref_s"])
    print(f"tracing overhead: traced ops_per_ref_s {t_ops:.4g} (seed {args.seed}) vs "
          f"untraced median {u_ops:.4g} ({100 * (1 - t_ops / u_ops):+.2f} %)")
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
