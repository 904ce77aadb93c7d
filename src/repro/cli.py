"""Command-line interface.

Subcommands::

    repro generate --kind random --internal 20 --clients 40 \\
        --capacity 50 --dmax 6 --out inst.json
    repro solve inst.json --algorithm auto
    repro check inst.json placement.json
    repro render inst.json [placement.json]
    repro info inst.json
    repro sweep --out sweep.jsonl
    repro compare --store sweep.jsonl
    repro stress --quick
    repro serve --port 8350 --data-dir state/
    repro recover --data-dir state/
    repro cluster --workers 3 --data-root state/
    repro loadtest --url http://127.0.0.1:8360 --requests 200

``solve`` writes the placement JSON to stdout (or ``--out``) and prints
a summary to stderr, so pipelines can chain ``solve | check``.
``sweep`` fans the default instance corpus across the registered
solvers in parallel and persists JSON-lines results; ``compare``
renders a solver-vs-solver table either live on one instance or from a
persisted sweep store.  ``serve`` runs the placement daemon (JSON over
HTTP, see :mod:`repro.service.daemon`).  ``simulate --online`` replays
a randomized change-event trace through the re-placement engine with
the replay runner (:mod:`repro.replay`) and prints its report, cold
re-solve parity audits included.
``stress`` runs the differential conformance harness — every
registered solver over the adversarial scenario grid, gated on
solver-independent invariants (:mod:`repro.scenarios`).  ``serve
--data-dir`` makes the daemon durable (WAL + snapshots,
:mod:`repro.storage`); ``recover`` inspects and replays such a data
directory offline without binding a socket.  ``cluster`` shards the
service across N worker daemons behind a consistent-hash router with
health-aware failover (:mod:`repro.cluster`); ``loadtest`` drives a
deterministic seeded request mix at a cluster (or single daemon) and
reports latency percentiles, error rate and per-worker cache-hit
throughput.

Every verb's ``--help`` epilog names the ``docs/`` page covering it;
``repro --version`` reports the installed package version.

The solving verbs — ``solve``, ``check``, ``compare``, ``simulate`` —
are thin shims over :class:`repro.service.PlacementService`, so they
get auto-selection (``--algorithm auto``), result caching and uniform
error reporting for free.  Solvers come exclusively from the registry
in :mod:`repro.runner` — registering a new solver makes it available to
every verb with no CLI change.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import lower_bound
from .core.errors import ReproError
from .runner import registry
from .instances import (
    broom,
    caterpillar,
    dump_instance,
    instance_to_dict,
    load_instance,
    placement_from_dict,
    placement_to_dict,
    random_binary_tree,
    random_tree,
    render_placement_summary,
    render_tree,
    star,
)

__all__ = ["main"]


class _CliError(Exception):
    """A user-input problem with a clean message (exit code 2)."""


def _algorithm_names() -> list:
    """Registered solver names (the registry is the single source)."""
    return [s.name for s in registry.available_solvers()]


def _positive_int(text: str) -> int:
    """Argparse type for budgets: a strictly positive integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}"
        )
    return value


def _positive_float(text: str) -> float:
    """Argparse type for rates/scales: a strictly positive float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a positive number, got {text!r}"
        ) from None
    if not value > 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive number, got {value}"
        )
    return value


def _nonnegative_int(text: str) -> int:
    """Argparse type for seeds: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {value}"
        )
    return value


def _load_instance(path: str):
    """`load_instance` with user-facing error reporting.

    Maps the raw failure modes of a missing or corrupt instance file
    onto :class:`_CliError`, so every verb reports them uniformly on
    stderr with exit code 2 instead of a traceback.
    """
    try:
        return load_instance(path)
    except FileNotFoundError:
        raise _CliError(f"instance file not found: {path}") from None
    except IsADirectoryError:
        raise _CliError(f"instance path is a directory: {path}") from None
    except json.JSONDecodeError as exc:
        raise _CliError(f"corrupt instance file {path}: {exc}") from None
    except (KeyError, TypeError, ValueError, ReproError) as exc:
        raise _CliError(
            f"invalid instance file {path}: {type(exc).__name__}: {exc}"
        ) from None


def _load_placement(path: str):
    """`placement_from_dict` over a file, with the same error mapping."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return placement_from_dict(json.load(fh))
    except FileNotFoundError:
        raise _CliError(f"placement file not found: {path}") from None
    except IsADirectoryError:
        raise _CliError(f"placement path is a directory: {path}") from None
    except json.JSONDecodeError as exc:
        raise _CliError(f"corrupt placement file {path}: {exc}") from None
    except (KeyError, TypeError, ValueError, ReproError) as exc:
        raise _CliError(
            f"invalid placement file {path}: {type(exc).__name__}: {exc}"
        ) from None


def _package_version() -> str:
    """Installed package version, falling back to the source tree's."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("replica-placement-repro")
    except PackageNotFoundError:
        from . import __version__

        return __version__


def _docs(page: str) -> str:
    """Standard epilog pointing a verb at its documentation page."""
    return f"full documentation: docs/{page}.md"


def _service():
    """One :class:`~repro.service.PlacementService` per CLI invocation.

    Imported lazily so non-solving verbs (``generate``, ``render``, …)
    don't pay for the service layer.
    """
    from .service import PlacementService

    return PlacementService()


def _cmd_generate(args: argparse.Namespace) -> int:
    from .core import Policy

    kind = args.kind
    common = dict(
        capacity=args.capacity,
        dmax=args.dmax,
        seed=args.seed,
        policy=Policy(args.policy),
    )
    if kind == "random":
        inst = random_tree(
            args.internal, args.clients, max_arity=args.arity, **common
        )
    elif kind == "binary":
        inst = random_binary_tree(args.internal, args.clients, **common)
    elif kind == "caterpillar":
        inst = caterpillar(args.internal, **common)
    elif kind == "broom":
        inst = broom(args.internal, args.clients, **common)
    elif kind == "star":
        inst = star(args.clients, **common)
    elif kind == "mesh":
        from .instances import isp_mesh

        try:
            inst = isp_mesh(
                args.pops,
                capacity=args.capacity,
                dmax=args.dmax,
                seed=args.seed,
                policy=Policy(args.policy),
            )
        except ValueError as exc:
            raise _CliError(f"generate --kind mesh: {exc}") from None
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(kind)
    if args.out:
        dump_instance(inst, args.out)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        json.dump(instance_to_dict(inst), sys.stdout, indent=2)
        print()
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    solver = None if args.algorithm == "auto" else args.algorithm
    resp = _service().solve_instance(inst, solver, budget=args.budget)
    if resp.placement is None:
        msg = resp.error.message if resp.error is not None else resp.status
        print(f"solve failed ({resp.status}): {msg}", file=sys.stderr)
        return 1
    data = placement_to_dict(resp.placement)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2)
    else:
        json.dump(data, sys.stdout, indent=2)
        print()
    invalid = resp.status == "invalid"
    print(
        f"{resp.solver}: {resp.n_replicas} replicas "
        f"(lower bound {resp.lower_bound}); "
        + ("valid" if not invalid else f"INVALID: {resp.error.message}"),
        file=sys.stderr,
    )
    return 0 if not invalid else 1


def _cmd_check(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    placement = _load_placement(args.placement)
    problems = _service().check(inst, placement)
    if problems:
        for p in problems:
            print(f"VIOLATION: {p}")
        return 1
    print(
        f"valid placement: {placement.n_replicas} replicas, "
        f"lower bound {lower_bound(inst)}"
    )
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    placement = None
    if args.placement:
        placement = _load_placement(args.placement)
    print(render_tree(inst, placement))
    if placement is not None:
        print()
        print(render_placement_summary(inst, placement))
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    t = inst.tree
    print(f"variant        : {inst.variant}")
    print(f"nodes          : {len(t)} ({len(t.clients)} clients)")
    print(f"arity          : {t.arity}")
    print(f"capacity W     : {inst.capacity}")
    print(f"dmax           : {inst.dmax}")
    print(f"total demand   : {t.total_requests}")
    print(f"lower bound    : {lower_bound(inst)}")
    reason = inst.trivially_infeasible()
    print(f"feasible       : {'no — ' + reason if reason else 'not excluded'}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.replay and args.online:
        print(
            "simulate: --replay and --online are mutually exclusive",
            file=sys.stderr,
        )
        return 2
    if args.replay:
        return _cmd_simulate_replay(args)
    if args.online:
        return _cmd_simulate_online(args)
    from .simulate import deterministic_trace, poisson_trace, simulate

    inst = _load_instance(args.instance)
    if args.placement is None:
        print(
            "simulate: a placement file is required (or use --online "
            "to drive the re-placement engine instead)",
            file=sys.stderr,
        )
        return 2
    placement = _load_placement(args.placement)
    problems = _service().check(inst, placement)
    if problems:
        print(f"refusing to simulate an invalid placement: {problems[0]}")
        return 1
    horizon = args.horizon
    if args.workload == "deterministic":
        trace = deterministic_trace(inst.tree, horizon)
    else:
        trace = poisson_trace(inst.tree, float(horizon), seed=args.seed)
    res = simulate(inst, placement, trace, horizon)
    print(res.summary())
    for s in sorted(placement.replicas):
        print(
            f"  server {s:>4}: peak {res.peak_load(s):>6} / {inst.capacity}"
        )
    return 0


def _cmd_simulate_replay(args: argparse.Namespace) -> int:
    """``repro simulate --replay``: demand trace vs the dynamic engine."""
    inst = _load_replay_instance(args, "--replay")
    horizon = args.horizon
    sample = args.sample
    check_every = 8 if args.check_every is None else args.check_every
    if args.quick:
        horizon = min(horizon, 12)
        sample = min(sample, 128)
        check_every = min(check_every, 4)
    return _run_replay_cli(
        args, "--replay", inst, args.trace,
        horizon=horizon,
        tenants=args.tenants,
        rate_scale=args.rate_scale,
        check_every=check_every,
        sample=sample,
    )


def _cmd_simulate_online(args: argparse.Namespace) -> int:
    """``repro simulate --online``: a random event trace vs the engine."""
    from .dynamic import random_event_trace

    inst = _load_replay_instance(args, "--online")
    try:
        trace = random_event_trace(
            inst,
            steps=args.steps,
            events_per_step=args.events_per_step,
            seed=args.seed,
            p_fail=args.p_fail,
            p_capacity=args.p_capacity,
        )
    except ValueError as exc:
        raise _CliError(f"simulate --online: {exc}") from None
    # Audit every step unless told otherwise: the cold re-solve of each
    # incremental step is the parity check.
    return _run_replay_cli(
        args, "--online", inst, trace,
        check_every=1 if args.check_every is None else args.check_every,
        sample=args.sample,
    )


def _load_replay_instance(args: argparse.Namespace, flag: str):
    inst = _load_instance(args.instance)
    if args.placement is not None:
        raise _CliError(
            f"simulate {flag} solves its own placements; "
            "drop the placement argument"
        )
    return inst


def _run_replay_cli(
    args: argparse.Namespace, flag: str, inst, trace, **kwargs
) -> int:
    """Replay ``trace``, print table and summary, exit 1 on any violation."""
    from .analysis import render_replay_table, replay_report
    from .replay import run_replay

    solver = None if args.solver in (None, "auto") else args.solver
    try:
        result = run_replay(inst, trace, seed=args.seed, solver=solver, **kwargs)
    except ValueError as exc:
        raise _CliError(f"simulate {flag}: {exc}") from None
    except ReproError as exc:
        print(f"replay failed: {exc}", file=sys.stderr)
        return 1
    report = replay_report(result)
    print(render_replay_table(result, limit=24))
    s = report["summary"]
    cost = s["cost"]["mean"]
    lat = s["latency"]["mean"]
    head = (
        f"\n{result.mode} replay of {result.trace!r} over "
        f"{result.n_nodes} nodes, {result.horizon} ticks"
    )
    if result.tenants > 1:
        head += f" x {result.tenants} tenants"
    if cost is not None:
        head += f": cost mean {cost:.1f}"
    if lat is not None:
        head += f", latency mean {lat:.3f}"
    print(head, file=sys.stderr)
    hit_rate = s["cache_hit_rate"]
    speedup = s["speedup"]["mean"]
    print(
        f"repair rate {s['repair_rate']:.2f}; "
        f"repair failures {s['repair_failures']}; "
        + (f"cache hit rate {hit_rate:.2f}; " if hit_rate is not None else "")
        + f"parity audits {s['parity_checks']}"
        + (f" (resolve/repair {speedup:.2f}x)" if speedup is not None else "")
        + f"; invariants: {s['invariant_checks']} checks, "
        f"{s['invariant_violations']} violations; "
        f"fingerprint {report['run']['fingerprint']}",
        file=sys.stderr,
    )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
        print(f"wrote {args.json}", file=sys.stderr)
    if result.violations:
        for v in result.violations[:5]:
            print(f"VIOLATION {v}", file=sys.stderr)
        return 1
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    if args.store:
        from .analysis import render_sweep_table
        from .runner import ResultStore

        if args.instance:
            print(
                "compare: give either an instance file or --store, not both",
                file=sys.stderr,
            )
            return 2
        results = list(ResultStore(args.store).latest().values())
        if not results:
            print(f"no results in {args.store}", file=sys.stderr)
            return 1
        n_inst = len({f"{r.instance}@{r.seed}" for r in results})
        print(f"{len(results)} rows, {n_inst} instances  ({args.store})")
        print(render_sweep_table(results))
        return 0
    if not args.instance:
        print("compare: give an instance file or --store", file=sys.stderr)
        return 2
    inst = _load_instance(args.instance)
    lb = lower_bound(inst)
    print(f"{'algorithm':<16} {'replicas':>9} {'valid':>6}   (lower bound {lb})")
    rc = 0
    svc = _service()
    for name in args.algorithms:
        resp = svc.solve_instance(inst, name)
        if resp.placement is None:
            msg = resp.error.message if resp.error is not None else resp.status
            print(f"{name:<16} {'—':>9} {'n/a':>6}   ({msg})")
            continue
        invalid = resp.status == "invalid"
        if invalid:
            rc = 1
        print(
            f"{name:<16} {resp.n_replicas:>9} "
            f"{'yes' if not invalid else 'NO':>6}"
        )
    return rc


def _default_sweep_workers(n_tasks: int) -> int:
    """Parallel by default: one worker per CPU, but never more than
    there are (solver, instance) tasks — extra workers would sit idle."""
    import os

    return max(1, min(os.cpu_count() or 1, n_tasks))


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .analysis import render_sweep_table
    from .runner import (
        ResultStore,
        default_corpus,
        run_sweep,
        tasks_for_corpus,
    )

    corpus = default_corpus(limit=args.limit, seed0=args.seed)
    solvers = args.solvers or None
    tasks = tasks_for_corpus(
        corpus, solvers, budget=args.budget, timeout=args.timeout
    )
    if not tasks:
        print("sweep: no applicable (solver, instance) pairs", file=sys.stderr)
        return 1
    store = ResultStore(args.out) if args.out else None
    if store is not None:
        # Provenance: the seed and the exact generator specs make the
        # sweep reproducible from the store alone (`metadata()` returns
        # them merged; see docs/scenarios.md on reproducibility).
        store.write_metadata(
            {
                "verb": "sweep",
                "seed": args.seed,
                "generator": "default_corpus",
                "specs": corpus,
                "solvers": args.solvers,
                "budget": args.budget,
                "timeout": args.timeout,
                "limit": args.limit,
            }
        )

    def _progress(res) -> None:
        if args.verbose:
            n = res.n_replicas if res.n_replicas is not None else "—"
            print(
                f"  {res.key:<50} {res.status:<12} |R|={n} "
                f"{res.wall_time * 1e3:7.1f}ms",
                file=sys.stderr,
            )

    workers = args.workers
    if workers is None:
        workers = _default_sweep_workers(len(tasks))
    retry = ("error", "timeout") if args.retry_timeouts else ("error",)
    outcome = run_sweep(
        tasks,
        workers=workers,
        store=store,
        resume=not args.no_resume,
        retry_statuses=retry,
        on_result=_progress,
    )
    print(
        f"sweep: {len(corpus)} instances, {outcome.n_run} tasks run, "
        f"{outcome.n_skipped} resumed from store"
        + (f" -> {args.out}" if args.out else ""),
        file=sys.stderr,
    )
    print(render_sweep_table(outcome.results))
    bad = [r for r in outcome.results if r.status in ("invalid", "error")]
    return 1 if bad else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .analysis import (
        compare_snapshots,
        find_baseline,
        load_snapshot,
        render_bench_table,
        run_bench,
        snapshot_problems,
        write_snapshot,
    )

    profile = args.profile or ("quick" if args.quick else "full")
    snapshot = run_bench(profile, repeats=args.repeats)
    path = write_snapshot(snapshot, args.out_dir, label=args.label)
    print(render_bench_table(snapshot))
    print(f"\nwrote {path}", file=sys.stderr)

    # Fail closed: a solver that crashed on the pinned corpus or
    # diverged from its object-graph reference is a hard failure even
    # with no baseline to compare against.
    rc = 0
    for problem in snapshot_problems(snapshot):
        print(f"BENCH FAILURE: {problem}", file=sys.stderr)
        rc = 1

    baseline_path = None
    if args.baseline == "auto":
        baseline_path = find_baseline(args.out_dir, exclude=path)
    elif args.baseline not in (None, "none"):
        baseline_path = args.baseline
    if baseline_path is not None:
        baseline = load_snapshot(baseline_path)
        lines, regressions = compare_snapshots(
            snapshot, baseline, threshold_pct=args.threshold
        )
        print(f"\nvs baseline {baseline_path} (threshold {args.threshold}%):")
        for line in lines:
            print(f"  {line}")
        if regressions:
            print(
                f"bench: {len(regressions)} regression(s) beyond "
                f"{args.threshold}%",
                file=sys.stderr,
            )
            rc = 1
    else:
        print("bench: no baseline snapshot found; skipped comparison",
              file=sys.stderr)
    return rc


def _cmd_stress(args: argparse.Namespace) -> int:
    import dataclasses

    from .analysis import stress_report
    from .scenarios import family_names, full_config, quick_config, run_stress

    known = family_names()
    if args.list:
        for name in known:
            print(name)
        return 0
    families = args.family or None
    if families:
        unknown = sorted(set(families) - set(known))
        if unknown:
            raise _CliError(
                f"unknown scenario families: {', '.join(unknown)} "
                f"(repro stress --list shows the catalogue)"
            )
    if args.quick:
        config = quick_config(families, args.solvers)
    else:
        config = full_config(families, args.solvers)
    overrides = {}
    if args.seeds is not None or args.seed != 0:
        n = args.seeds if args.seeds is not None else len(config.seeds)
        overrides["seeds"] = [args.seed + i for i in range(n)]
    if args.size is not None:
        overrides["size"] = args.size
    if args.budget is not None:
        overrides["budget"] = args.budget
    if args.no_dynamic:
        overrides["check_dynamic"] = False
    if overrides:
        config = dataclasses.replace(config, **overrides)

    def _progress(row) -> None:
        if args.verbose:
            flag = "ok" if row.n_violations == 0 else f"{row.n_violations} VIOLATIONS"
            print(
                f"  {row.cell:<44} {row.variant:<16} n={row.n_nodes:<4} "
                f"{len(row.statuses)} solvers {row.wall_time * 1e3:7.1f}ms  {flag}",
                file=sys.stderr,
            )

    report = run_stress(config, on_cell=_progress)
    print(stress_report(report))
    if args.json:
        data = json.dumps(report.to_dict(), indent=2, sort_keys=True)
        if args.json == "-":
            print(data)
        else:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(data + "\n")
            print(f"wrote {args.json}", file=sys.stderr)
    # Coverage only gates a full-catalogue run: a deliberate --family
    # subset is allowed to leave solvers unexercised.
    gate_coverage = families is None and report.uncovered
    if report.uncovered:
        print(
            f"stress: {len(report.uncovered)} registered solver(s) never ran: "
            + ", ".join(report.uncovered),
            file=sys.stderr,
        )
    return 0 if report.ok and not gate_coverage else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import serve
    from .storage import RecoveryError

    try:
        return serve(
            args.host,
            args.port,
            cache_size=args.cache_size,
            default_budget=args.budget,
            verbose=args.verbose,
            data_dir=args.data_dir,
            snapshot_interval=args.snapshot_interval,
        )
    except RecoveryError as exc:
        # Structural damage in --data-dir: refuse to start rather than
        # silently serving from partial state.  `repro recover` is the
        # offline inspection path.
        raise _CliError(
            f"cannot recover service state: {exc} "
            f"(inspect with: repro recover --data-dir {args.data_dir})"
        ) from None


def _cmd_recover(args: argparse.Namespace) -> int:
    import json as _json
    import os

    from .service import PlacementService
    from .storage import (
        RecoveryError,
        StateStore,
        decode_record,
        list_snapshots,
        scan_wal,
    )

    wal_path = os.path.join(args.data_dir, StateStore.WAL_FILENAME)
    if not os.path.isdir(args.data_dir):
        raise _CliError(f"no such data directory: {args.data_dir}")

    # Offline structure pass first: what is on disk, before any replay.
    snapshots = list_snapshots(args.data_dir)
    try:
        scan = scan_wal(wal_path)
        kinds: dict = {}
        for _seq, payload in scan.records:
            record = decode_record(payload)
            kinds[record.kind] = kinds.get(record.kind, 0) + 1
    except RecoveryError as exc:
        raise _CliError(f"write-ahead log is damaged: {exc}") from None

    # Full replay pass: rebuild the service state exactly as `repro
    # serve --data-dir` would, then report what came back.
    try:
        service = PlacementService(
            store=StateStore(args.data_dir, snapshot_interval=0)
        )
    except RecoveryError as exc:
        raise _CliError(f"replay failed: {exc}") from None
    try:
        stats = service.stats()
        dur = stats.durability
        sessions = service.dynamic_sessions()
        compacted_seq = None
        if args.compact:
            compacted_seq = service.persist_now()
        if args.json:
            print(_json.dumps({
                "data_dir": args.data_dir,
                "snapshots": [seq for seq, _path in snapshots],
                "wal_records": len(scan.records),
                "wal_bytes": scan.valid_bytes,
                "torn_tail": scan.torn_tail,
                "record_kinds": kinds,
                "durability": dur.to_wire(),
                "sessions": sessions,
                "cache_entries": stats.cache.size,
                "state_fingerprint": service.state_fingerprint(),
                "compacted_to_seq": compacted_seq,
            }, indent=2, sort_keys=True))
            return 0
        print(f"recovery report for {args.data_dir}")
        if snapshots:
            print(f"  snapshots: {', '.join(f'seq {s}' for s, _ in snapshots)}")
        else:
            print("  snapshots: none")
        torn = " (torn tail truncated on replay)" if scan.torn_tail else ""
        print(
            f"  wal: {len(scan.records)} intact records, "
            f"{scan.valid_bytes} valid bytes{torn}"
        )
        for kind in sorted(kinds):
            print(f"    {kind}: {kinds[kind]}")
        print(
            f"  replay: ok — {dur.records_replayed} records replayed, "
            f"{dur.records_skipped} stale skipped, "
            f"{len(sessions)} open session(s), "
            f"{stats.cache.size} cache entries"
        )
        for s in sessions:
            cost = s["n_replicas"] if s["n_replicas"] is not None else "-"
            print(
                f"    {s['session_id']}: solver={s['solver']} "
                f"cost={cost} failed={s['failed_hosts']}"
            )
        print(f"  state fingerprint: {service.state_fingerprint()}")
        if compacted_seq is not None:
            print(f"  compacted: snapshot written at seq {compacted_seq}")
        return 0
    finally:
        service.close()


def _cmd_cluster(args: argparse.Namespace) -> int:
    from .cluster import run_cluster
    from .storage import RecoveryError

    worker_urls = None
    if args.attach:
        worker_urls = {
            f"worker-{i}": url.rstrip("/")
            for i, url in enumerate(args.attach)
        }
    elif args.data_root is None:
        raise _CliError(
            "--data-root is required unless --attach lists worker URLs"
        )
    try:
        return run_cluster(
            args.host,
            args.port,
            n_workers=args.workers,
            data_root=args.data_root,
            worker_urls=worker_urls,
            probe_interval=args.probe_interval,
            down_after=args.down_after,
            snapshot_interval=args.snapshot_interval,
            verbose=args.verbose,
        )
    except RecoveryError as exc:
        raise _CliError(
            f"cannot recover worker state under {args.data_root}: {exc}"
        ) from None


def _cmd_loadtest(args: argparse.Namespace) -> int:
    import json as _json

    from .analysis import cluster_report
    from .cluster import run_loadtest

    n_requests = args.requests
    mix = args.mix
    if args.quick:
        n_requests = min(n_requests, 40)
        mix = "quick"

    manager = None
    server = None
    tmp = None
    url = args.url
    try:
        if url is None:
            # No target given: stand up a throwaway local cluster, drive
            # it, and tear it down — the zero-setup benchmarking path.
            import tempfile
            import threading

            from .cluster import ClusterManager, make_router

            tmp = tempfile.TemporaryDirectory(prefix="repro-loadtest-")
            manager = ClusterManager(args.workers, tmp.name)
            server = make_router("127.0.0.1", 0, workers=manager.urls())
            threading.Thread(
                target=server.serve_forever,
                name="repro-loadtest-router",
                daemon=True,
            ).start()
            server.start_prober()
            host, port = server.server_address[:2]
            url = f"http://{host}:{port}"
            print(
                f"loadtest: transient cluster of {args.workers} worker(s) "
                f"behind {url}",
                file=sys.stderr,
            )
        report = run_loadtest(
            url,
            n_requests=n_requests,
            concurrency=args.concurrency,
            seed=args.seed,
            mix=mix,
        )
    finally:
        if server is not None:
            server.shutdown()
            server.server_close()
        if manager is not None:
            manager.stop_all(graceful=False)
        if tmp is not None:
            tmp.cleanup()

    text = cluster_report(report)
    if args.json:
        data = _json.dumps(report.to_dict(), indent=2, sort_keys=True)
        if args.json == "-":
            print(data)
        else:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(data + "\n")
            print(f"wrote {args.json}", file=sys.stderr)
            print(text)
    else:
        print(text)
    return 0 if report.failed == 0 else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis import full_report

    text = full_report()
    if args.sweep:
        from .analysis import sweep_report
        from .runner import ResultStore

        text = text + "\n" + sweep_report(ResultStore(args.sweep).latest().values())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Replica placement with distance constraints in trees",
        epilog="documentation index: docs/architecture.md",
    )
    p.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {_package_version()}",
    )
    sub = p.add_subparsers(dest="command", required=True)
    algorithm_names = sorted(_algorithm_names())

    g = sub.add_parser(
        "generate",
        help="generate an instance",
        epilog=_docs("architecture"),
    )
    g.add_argument(
        "--kind",
        choices=["random", "binary", "caterpillar", "broom", "star", "mesh"],
        default="random",
    )
    g.add_argument("--internal", type=int, default=20)
    g.add_argument("--clients", type=int, default=40)
    g.add_argument("--pops", type=_positive_int, default=24,
                   help="mesh: number of POPs in the ISP mesh (the "
                   "extracted tree has roughly 1.6x as many nodes)")
    g.add_argument("--capacity", type=int, required=True)
    g.add_argument("--dmax", type=float, default=None)
    g.add_argument("--policy", choices=["single", "multiple"],
                   default="single",
                   help="access policy of the generated instance")
    g.add_argument("--arity", type=int, default=4)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default=None)
    g.set_defaults(func=_cmd_generate)

    s = sub.add_parser(
        "solve", help="solve an instance", epilog=_docs("service")
    )
    s.add_argument("instance")
    s.add_argument(
        "--algorithm", choices=["auto"] + algorithm_names, default="single-gen",
        help="registered solver name, or 'auto' to let the service "
        "pick from the documented fallback chain",
    )
    s.add_argument("--budget", type=_positive_int, default=None,
                   help="search budget forwarded to budgeted solvers")
    s.add_argument("--out", default=None)
    s.set_defaults(func=_cmd_solve)

    c = sub.add_parser(
        "check", help="validate a placement", epilog=_docs("service")
    )
    c.add_argument("instance")
    c.add_argument("placement")
    c.set_defaults(func=_cmd_check)

    r = sub.add_parser(
        "render",
        help="ASCII-render an instance",
        epilog=_docs("architecture"),
    )
    r.add_argument("instance")
    r.add_argument("placement", nargs="?", default=None)
    r.set_defaults(func=_cmd_render)

    i = sub.add_parser(
        "info", help="instance statistics", epilog=_docs("architecture")
    )
    i.add_argument("instance")
    i.set_defaults(func=_cmd_info)

    sim = sub.add_parser(
        "simulate",
        help="replay a request trace, or drive the online "
        "re-placement engine with --online",
        epilog=_docs("simulation"),
    )
    sim.add_argument("instance")
    sim.add_argument("placement", nargs="?", default=None,
                     help="placement JSON (offline mode only)")
    sim.add_argument(
        "--workload", choices=["deterministic", "poisson"],
        default="deterministic",
    )
    sim.add_argument("--horizon", type=int, default=10)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--online", action="store_true",
                     help="replay a randomized change-event trace through "
                     "the re-placement engine and print the replay report "
                     "with the repair-vs-resolve audit")
    sim.add_argument("--steps", type=int, default=20,
                     help="online: number of event batches")
    sim.add_argument("--events-per-step", type=int, default=1,
                     help="online: events per batch")
    sim.add_argument("--p-fail", type=float, default=0.0,
                     help="online: per-event probability of a host failure")
    sim.add_argument("--p-capacity", type=float, default=0.0,
                     help="online: per-event probability of a capacity resize")
    sim.add_argument("--solver", choices=["auto"] + algorithm_names,
                     default="auto",
                     help="replay/online: engine solver (auto picks the "
                     "incremental backend for NoD instances)")
    sim.add_argument("--replay", action="store_true",
                     help="feed a demand trace (diurnal/flash/zipf, "
                     "composable with '+') through the dynamic engine "
                     "and report cost/latency/repair-rate over time")
    sim.add_argument("--trace", default="diurnal+flash",
                     help="replay: trace spec, e.g. 'diurnal+flash' "
                     "(stationary, diurnal, flash, zipf)")
    sim.add_argument("--tenants", type=_positive_int, default=1,
                     help="replay: independent catalogues sharing the "
                     "tree; >1 solves per tenant through the cached "
                     "service")
    sim.add_argument("--rate-scale", type=_positive_float, default=1.0,
                     help="replay: global multiplier on base demand")
    sim.add_argument("--check-every", type=_nonnegative_int, default=None,
                     help="replay/online: audit period in ticks — the "
                     "checker on a client sample, and a cold re-solve of "
                     "incremental ticks for the parity check (default 8 "
                     "for --replay, at most 4 with --quick, every step "
                     "for --online; 0 disables)")
    sim.add_argument("--sample", type=_positive_int, default=256,
                     help="replay/online: client sample size for latency "
                     "and invariant checks")
    sim.add_argument("--quick", action="store_true",
                     help="replay: CI smoke preset (caps horizon at 12 "
                     "ticks, sample at 128)")
    sim.add_argument("--json", default=None, metavar="PATH",
                     help="replay/online: also write the full JSON report")
    sim.set_defaults(func=_cmd_simulate)

    cmp_ = sub.add_parser(
        "compare",
        help="run several algorithms on one instance, or summarise a "
        "persisted sweep store",
        epilog=_docs("algorithms"),
    )
    cmp_.add_argument("instance", nargs="?", default=None)
    cmp_.add_argument(
        "--algorithms", nargs="+", choices=algorithm_names,
        default=["single-gen", "greedy-packing", "local"],
    )
    cmp_.add_argument(
        "--store", default=None,
        help="JSON-lines sweep store to summarise instead of solving live",
    )
    cmp_.set_defaults(func=_cmd_compare)

    sw = sub.add_parser(
        "sweep",
        help="fan the default corpus across registered solvers in parallel",
        epilog=_docs("algorithms"),
    )
    sw.add_argument(
        "--out", default=None,
        help="JSON-lines result store (sweeps resume from it by default)",
    )
    sw.add_argument(
        "--solvers", nargs="+", choices=algorithm_names, default=None,
        help="subset of solvers (default: every applicable registered solver)",
    )
    sw.add_argument("--limit", type=int, default=None,
                    help="truncate the corpus to its first N instances")
    sw.add_argument("--workers", type=int, default=None,
                    help="worker processes (default: one per CPU, capped "
                    "at the number of sweep tasks; 1 = run inline)")
    sw.add_argument("--timeout", type=float, default=60.0,
                    help="per-task timeout in seconds (0 disables)")
    sw.add_argument("--budget", type=_positive_int, default=None,
                    help="search budget forwarded to exact solvers")
    sw.add_argument("--seed", type=int, default=0,
                    help="corpus seed offset (distinct sweeps, distinct instances)")
    sw.add_argument("--no-resume", action="store_true",
                    help="recompute rows already present in --out")
    sw.add_argument("--retry-timeouts", action="store_true",
                    help="also recompute stored timeout rows (crashed "
                    "'error' rows are always retried)")
    sw.add_argument("--verbose", action="store_true",
                    help="stream one line per completed task to stderr")
    sw.set_defaults(func=_cmd_sweep)

    bn = sub.add_parser(
        "bench",
        help="run the pinned performance corpus and persist a "
        "BENCH_<date>.json snapshot",
        epilog=_docs("performance"),
    )
    bn.add_argument("--out-dir", default=".",
                    help="directory for BENCH_*.json snapshots")
    bn.add_argument("--quick", action="store_true",
                    help="run the reduced CI corpus (the 220-node "
                    "NoD flagships and the 9544-node mesh ticks)")
    bn.add_argument("--profile", choices=["full", "quick", "smoke"],
                    default=None,
                    help="explicit corpus profile (overrides --quick)")
    bn.add_argument("--repeats", type=int, default=None,
                    help="timing samples per solver, each of several "
                    "calls (best sample kept; default 3, 1 for smoke)")
    bn.add_argument("--baseline", default="auto",
                    help="snapshot to compare against: a path, 'auto' "
                    "(latest BENCH_*.json in --out-dir) or 'none'")
    bn.add_argument("--threshold", type=float, default=25.0,
                    help="fail on calibration-normalised slowdowns "
                    "beyond this percentage")
    bn.add_argument("--label", default=None,
                    help="snapshot filename label (default: today's date)")
    bn.set_defaults(func=_cmd_bench)

    st = sub.add_parser(
        "stress",
        help="run the differential conformance harness over the "
        "adversarial scenario grid",
        epilog=_docs("scenarios"),
    )
    st.add_argument(
        "--family", action="append", default=None, metavar="NAME",
        help="restrict to one scenario family (repeatable; "
        "default: the full catalogue)",
    )
    st.add_argument(
        "--solvers", nargs="+", choices=algorithm_names, default=None,
        help="subset of solvers (default: every applicable registered solver)",
    )
    st.add_argument("--quick", action="store_true",
                    help="the pinned CI gate grid: every family, one "
                    "seed, small sizes (finishes in seconds)")
    st.add_argument("--seed", type=_nonnegative_int, default=0,
                    help="base scenario seed (default 0, the pinned grid)")
    st.add_argument("--seeds", type=_positive_int, default=None,
                    help="number of consecutive seeds per cell "
                    "(default: 1 quick, 3 full)")
    st.add_argument("--size", type=_positive_int, default=None,
                    help="scenario scale (clients per instance; capped "
                    "per regime so exact solvers stay tractable)")
    st.add_argument("--budget", type=_positive_int, default=None,
                    help="search budget for exact solvers (exhaustion "
                    "is a recorded outcome, not a violation)")
    st.add_argument("--no-dynamic", action="store_true",
                    help="skip the failure-storm incremental-parity check")
    st.add_argument("--json", default=None, metavar="PATH",
                    help="also write the report as JSON ('-' for stdout)")
    st.add_argument("--list", action="store_true",
                    help="list the scenario family catalogue and exit")
    st.add_argument("--verbose", action="store_true",
                    help="stream one line per completed cell to stderr")
    st.set_defaults(func=_cmd_stress)

    srv = sub.add_parser(
        "serve",
        help="run the placement service daemon (JSON over HTTP)",
        epilog=_docs("service"),
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8350,
                     help="TCP port (0 binds an ephemeral port)")
    srv.add_argument("--cache-size", type=int, default=256,
                     help="LRU result-cache entries (0 disables caching)")
    srv.add_argument("--budget", type=_positive_int, default=None,
                     help="default search budget for budgeted solvers")
    srv.add_argument("--verbose", action="store_true",
                     help="log one access line per request to stderr")
    srv.add_argument("--data-dir", default=None,
                     help="persist service state here (WAL + snapshots) and "
                          "recover it on startup; see docs/durability.md")
    srv.add_argument("--snapshot-interval", type=int, default=256,
                     help="auto-snapshot after this many logged records "
                          "(0 disables; snapshot still taken on shutdown)")
    srv.set_defaults(func=_cmd_serve)

    rec = sub.add_parser(
        "recover",
        help="inspect and replay a serve --data-dir offline",
        epilog=_docs("durability"),
    )
    rec.add_argument("--data-dir", required=True,
                     help="data directory written by repro serve --data-dir")
    rec.add_argument("--json", action="store_true",
                     help="emit the report as JSON instead of text")
    rec.add_argument("--compact", action="store_true",
                     help="after a clean replay, write a fresh snapshot and "
                          "compact the write-ahead log")
    rec.set_defaults(func=_cmd_recover)

    cl = sub.add_parser(
        "cluster",
        help="run a consistent-hash router over N placement workers",
        epilog=_docs("cluster"),
    )
    cl.add_argument("--host", default="127.0.0.1")
    cl.add_argument("--port", type=int, default=8360,
                    help="router TCP port (0 binds an ephemeral port)")
    cl.add_argument("--workers", type=_positive_int, default=3,
                    help="number of managed worker daemons to spawn")
    cl.add_argument("--data-root", default=None,
                    help="directory holding one durable data-dir per worker "
                         "(worker-0/, worker-1/, ...); required unless "
                         "--attach is given")
    cl.add_argument("--attach", nargs="+", metavar="URL", default=None,
                    help="route across already-running repro serve daemons "
                         "instead of spawning a managed fleet; the i-th URL "
                         "is worker-<i>, so keep the order across restarts")
    cl.add_argument("--probe-interval", type=float, default=1.0,
                    help="seconds between health probes of each worker")
    cl.add_argument("--down-after", type=_positive_int, default=2,
                    help="consecutive probe failures before a worker is "
                         "ejected from the ring")
    cl.add_argument("--snapshot-interval", type=int, default=64,
                    help="per-worker auto-snapshot interval (records)")
    cl.add_argument("--verbose", action="store_true",
                    help="log one line per routed request to stderr")
    cl.set_defaults(func=_cmd_cluster)

    lt = sub.add_parser(
        "loadtest",
        help="drive a deterministic seeded request mix at a cluster",
        epilog=_docs("cluster"),
    )
    lt.add_argument("--url", default=None,
                    help="router (or single daemon) base URL; omitted = "
                         "spawn a transient local cluster, drive it, and "
                         "tear it down")
    lt.add_argument("--workers", type=_positive_int, default=3,
                    help="fleet size for the transient cluster "
                         "(ignored with --url)")
    lt.add_argument("--requests", type=_positive_int, default=200,
                    help="total requests to issue")
    lt.add_argument("--concurrency", type=_positive_int, default=8,
                    help="client thread-pool size")
    lt.add_argument("--seed", type=int, default=0,
                    help="request-mix seed (same seed + mix = same "
                         "fingerprint sequence)")
    lt.add_argument("--mix", choices=["default", "scenario", "quick"],
                    default="default",
                    help="which instance pool the mix draws from")
    lt.add_argument("--quick", action="store_true",
                    help="shorthand for a fast smoke pass: at most 40 "
                         "requests from the quick mix")
    lt.add_argument("--json", default=None, metavar="PATH",
                    help="also write the report as JSON ('-' for stdout)")
    lt.set_defaults(func=_cmd_loadtest)

    rep = sub.add_parser(
        "report",
        help="regenerate the paper's headline numbers",
        epilog=_docs("algorithms"),
    )
    rep.add_argument("--out", default=None)
    rep.add_argument(
        "--sweep", default=None,
        help="append a sweep summary section from this JSON-lines store",
    )
    rep.set_defaults(func=_cmd_report)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        # User-input problems (missing/corrupt files, unknown family
        # names): one clean stderr line, exit code 2 — same contract as
        # argparse's own usage errors, never a traceback.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream consumer (head, grep -m, ...) closed the pipe:
        # normal in `repro ... | head` pipelines, not an error.  Detach
        # stdout so the interpreter's shutdown flush cannot raise again.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
