"""Discrete-event request-serving simulator.

:func:`simulate` replays a request trace against one fixed placement
(latencies, per-unit loads, overload accounting) — the paper's offline
model checked in time.  Traffic generators live in
:mod:`~repro.simulate.workload`.  Change-event traces against the
re-placement engine run through :func:`repro.replay.run_replay`, and
greedy failure repair lives in :mod:`repro.dynamic.repair` (see
``docs/simulation.md``).
"""

from .engine import SimulationResult, simulate
from .metrics import ascii_histogram, latency_histogram, utilisation_table
from .workload import (
    Request,
    deterministic_trace,
    iter_units,
    poisson_trace,
    validate_horizon,
)

__all__ = [
    "Request",
    "deterministic_trace",
    "poisson_trace",
    "iter_units",
    "validate_horizon",
    "simulate",
    "SimulationResult",
    "ascii_histogram",
    "latency_histogram",
    "utilisation_table",
]
