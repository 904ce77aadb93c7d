"""Measurement harness: ratios, scaling, experiment tables, benchmarks."""

from .bench import (
    bench_corpus,
    compare_snapshots,
    find_baseline,
    load_snapshot,
    render_bench_table,
    run_bench,
    snapshot_problems,
    write_snapshot,
)
from .cluster import cluster_report, render_worker_health
from .complexity import ScalingPoint, ScalingResult, fit_power_law, measure_scaling
from .experiments import (
    ExperimentRow,
    ExperimentTable,
    SolverSummary,
    render_sweep_table,
    summarize_sweep,
)
from .replay import render_replay_table, replay_report
from .ratios import RatioReport, RatioSample, measure_ratios, policy_gap
from .report import (
    full_report,
    optimality_report,
    reduction_report,
    service_report,
    sweep_report,
    tight_family_report,
)
from .stress import render_stress_table, stress_report
from .sensitivity import (
    SweepPoint,
    capacity_sweep,
    dmax_sweep,
    knee,
    render_sweep,
)

__all__ = [
    "bench_corpus",
    "run_bench",
    "write_snapshot",
    "load_snapshot",
    "find_baseline",
    "compare_snapshots",
    "snapshot_problems",
    "render_bench_table",
    "RatioReport",
    "RatioSample",
    "measure_ratios",
    "policy_gap",
    "ScalingPoint",
    "ScalingResult",
    "measure_scaling",
    "fit_power_law",
    "ExperimentRow",
    "ExperimentTable",
    "SolverSummary",
    "summarize_sweep",
    "render_sweep_table",
    "sweep_report",
    "stress_report",
    "render_stress_table",
    "cluster_report",
    "render_worker_health",
    "service_report",
    "replay_report",
    "render_replay_table",
    "full_report",
    "tight_family_report",
    "optimality_report",
    "reduction_report",
    "SweepPoint",
    "dmax_sweep",
    "capacity_sweep",
    "knee",
    "render_sweep",
]
