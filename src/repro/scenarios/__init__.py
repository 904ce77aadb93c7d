"""Scenario library + differential conformance harness.

Sits beside :mod:`repro.runner` in the stack: where the runner sweeps
*typical* corpora for performance comparison, this package stress-tests
*correctness* — a named library of adversarial workload families
(:mod:`~repro.scenarios.families`: topology × demand-profile crosses),
correlated failure-storm event traces for the dynamic engine
(:mod:`~repro.scenarios.traces`), solver-independent invariants
(:mod:`~repro.scenarios.invariants`) and the conformance harness that
runs every registered solver over a sampled scenario grid and gates on
zero invariant violations (:mod:`~repro.scenarios.harness`).

Entry points: ``repro stress`` on the CLI,
:func:`run_stress`/:func:`quick_config` in process, and the
``kind="scenario"`` generator in :data:`repro.instances.GENERATORS`
for sweep/bench consumption.  See ``docs/scenarios.md``.
"""

from .families import (
    DEMANDS,
    FAMILIES,
    TOPOLOGIES,
    ScenarioFamily,
    build_scenario,
    family_names,
    scenario,
    scenario_spec,
)
from .harness import (
    REGIMES,
    CellRow,
    Regime,
    StressConfig,
    StressReport,
    full_config,
    quick_config,
    run_stress,
)
from .invariants import (
    INVARIANTS,
    REFERENCE_PAIRS,
    Violation,
    check_demand_monotonicity,
    check_exact_dominance,
    check_feasibility,
    check_flat_reference_identity,
    check_incremental_parity,
    sampled_violations,
)
from .traces import failure_storm_trace

__all__ = [
    "ScenarioFamily",
    "TOPOLOGIES",
    "DEMANDS",
    "FAMILIES",
    "family_names",
    "build_scenario",
    "scenario",
    "scenario_spec",
    "failure_storm_trace",
    "sampled_violations",
    "Violation",
    "INVARIANTS",
    "REFERENCE_PAIRS",
    "check_feasibility",
    "check_exact_dominance",
    "check_demand_monotonicity",
    "check_flat_reference_identity",
    "check_incremental_parity",
    "Regime",
    "REGIMES",
    "StressConfig",
    "CellRow",
    "StressReport",
    "quick_config",
    "full_config",
    "run_stress",
]
