"""End-to-end benchmark of the placement system: one workload per run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-mesh --seed 1 --seconds 20 --trace 0

Workloads (each driven from one client process and one thread):

``serve-mesh``   ``repro cluster --workers 2`` over one keep-alive
                 connection, 9544-node mesh instances (``wl_serve.py``)
``replay-mesh``  ``DynamicPlacement.apply`` on the mesh (``wl_replay.py``)
``dp-sweep``     ``PlacementService.solve``/``solve_many`` (``wl_sweep.py``)

The run builds its inputs from ``--seed``, sets the system up several
times (``setup_s`` is the median), measures closed-loop operations for
``--seconds`` seconds, checks every answer, prints per-class latencies
with sample counts, and ends with one JSON line: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Operation times are in
reference units, ``ref_ms`` and ``1/ref_s``: each is divided by the time
of a fixed loop the benchmark runs between operations, so that the
figures do not move with the speed of a shared host (``harness`` says
how); the milliseconds are printed beside them.  With ``--trace 0`` the
metrics are the end-to-end ones, where ``light/heavy/third_p50`` each
hold one operation class (``harness.SLOTS`` says which); with
``--trace 1`` the same schedule runs again with the benchmark timing
each layer from outside, the spans go to
``.perfbench_work/spans-<workload>-<seed>.json`` and the metrics are
the per-layer ones.

Everything the run writes stays under ``.perfbench_work/`` in the
checkout.  ``steady.py`` repeats runs to show the metrics are steady;
``test_harness.py`` tests the benchmark's own machinery.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import time

from harness import (
    SLOTS,
    WORK,
    BenchError,
    Tracer,
    import_program,
    report,
    run_dir,
)


def parse(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=list(SLOTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse(argv)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        import_program()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "serve-mesh":
        import wl_serve as module
    elif args.workload == "replay-mesh":
        import wl_replay as module
    else:
        import wl_sweep as module

    tracer = Tracer() if args.trace else None
    workdir = run_dir(args.workload, args.seed)
    t_run = time.perf_counter()
    try:
        outcome = module.run(args.workload, args.seed, args.seconds, tracer, workdir)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = report(outcome, seed=args.seed, traced=bool(args.trace))
    if tracer is not None:
        spans_path = WORK / f"spans-{args.workload}-{args.seed}.json"
        tracer.write(spans_path)
        print_layer_table(tracer)
        print(f"tracing overhead: layer probes run with the clock paused or "
              f"after the timed phase; traced ops_per_ref_s "
              f"{outcome.ops_per_ref_s:.4g} 1/ref_s against untraced runs is "
              f"the overhead (steady.py prints it)")
        print(f"spans: {len(tracer.spans)} written to {spans_path}")
    print(f"run wall time {time.perf_counter() - t_run:.1f} s")
    print(json.dumps(result))
    return 0


def print_layer_table(tracer: Tracer) -> None:
    """Per layer and class: span count, total and self milliseconds."""
    rows = tracer.table()
    print("layer spans (per class): name, class, n, total ms, self ms")
    for (name, cls), row in sorted(rows.items()):
        print(f"  {name:<24} {cls:<10} n={row['n']:<5} total "
              f"{row['total_ms']:>10.2f}  self {row['self_ms']:>10.2f}")


if __name__ == "__main__":
    sys.exit(main())
