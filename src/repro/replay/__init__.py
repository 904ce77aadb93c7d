"""Trace-driven workload replay over the dynamic placement engine.

Turns the paper's stationary demand model into time-varying production
traffic: composable demand traces (:mod:`~repro.replay.traces`),
multi-tenant catalogues (:mod:`~repro.replay.tenants`) and the replay
runner (:mod:`~repro.replay.runner`) that drives the dynamic engine —
or the per-tenant service cache — tick by tick, auditing the standing
placement with the independent checker on a client sample along the way.

Entry points: ``repro simulate --replay`` on the CLI,
:func:`run_replay` in process, and
:func:`repro.analysis.replay_report` for the JSON/table report.  See
``docs/simulation.md``.
"""

from .runner import ReplayResult, TickRow, run_replay
from .tenants import tenant_instance, tenant_instances
from .traces import TRACES, DemandTrace, make_trace, trace_names

__all__ = [
    "TRACES",
    "DemandTrace",
    "make_trace",
    "trace_names",
    "tenant_instance",
    "tenant_instances",
    "TickRow",
    "ReplayResult",
    "run_replay",
]
