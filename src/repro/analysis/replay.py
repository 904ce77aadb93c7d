"""Reporting for trace-driven replay runs.

Renders a :class:`~repro.replay.ReplayResult` two ways:

* :func:`replay_report` — a JSON-able dict: run header, per-tick
  series, and the summary statistics the ROADMAP cares about (cost
  mean/max, latency mean/p95, repair rate, cache hit rate, the
  repair-vs-resolve speedup and parity audits of audited ticks,
  fallback reasons and repair errors, invariant violations, the
  deterministic run fingerprint).  The CI smoke jobs upload this
  artifact and assert ``violations == []``.
* :func:`render_replay_table` — a monospace per-tick table for the
  terminal (one row per tick in engine mode; per-tenant rows are
  aggregated per tick in service mode), followed by every distinct
  fallback reason and repair error of the run.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..replay.runner import ReplayResult, TickRow
from ..service.facade import percentile

__all__ = ["replay_report", "render_replay_table"]


def _series_stats(values: List[float]) -> dict:
    if not values:
        return {"mean": None, "p95": None, "max": None}
    vals = sorted(values)
    return {
        "mean": sum(vals) / len(vals),
        "p95": percentile(vals, 0.95),
        "max": vals[-1],
    }


def replay_report(result: ReplayResult) -> dict:
    """JSON-able report of one replay run (header, series, summary)."""
    costs = [float(r.cost) for r in result.rows if r.cost is not None]
    lats = [
        float(r.latency_mean)
        for r in result.rows
        if r.latency_mean is not None
    ]
    repairs = [r for r in result.rows if r.n_changes > 0]
    audited = [r for r in result.rows if r.resolve_ms is not None]
    total = len(result.rows)
    requests = sum(1 for r in result.rows)
    return {
        "schema": 1,
        "run": {
            "instance": result.instance_name,
            "instance_fp": result.instance_fp,
            "n_nodes": result.n_nodes,
            "n_clients": result.n_clients,
            "trace": result.trace,
            "horizon": result.horizon,
            "seed": result.seed,
            "tenants": result.tenants,
            "solver": result.solver,
            "rate_scale": result.rate_scale,
            "mode": result.mode,
            "fingerprint": result.fingerprint(),
        },
        "summary": {
            "ticks": total,
            "ok_ticks": sum(1 for r in result.rows if r.ok),
            "cost": _series_stats(costs),
            "latency": _series_stats(lats),
            "repair_ms": _series_stats([r.repair_ms for r in repairs]),
            "repair_rate": (len(repairs) / total) if total else 0.0,
            "repair_failures": result.repair_failures,
            "resolve_ms": _series_stats([r.resolve_ms for r in audited]),
            "speedup": _series_stats(
                [r.speedup for r in audited if r.speedup is not None]
            ),
            "parity_checks": result.parity_checks,
            "fallback_reasons": _distinct(r.fallback_reason for r in result.rows),
            "repair_errors": _distinct(r.error for r in result.rows),
            "cache_hit_rate": (
                result.cache_hits / requests
                if result.mode == "service" and requests
                else None
            ),
            "invariant_checks": result.checks_run,
            "invariant_violations": len(result.violations),
        },
        "violations": [v.to_dict() for v in result.violations],
        "series": [r.to_dict() for r in result.rows],
    }


def _distinct(values: Iterable[Optional[str]]) -> List[str]:
    return sorted({v for v in values if v})


def _fmt(v: Optional[float], spec: str = "8.2f") -> str:
    return format(v, spec) if v is not None else "       —"


def render_replay_table(result: ReplayResult, limit: int = 0) -> str:
    """Monospace per-tick table (``limit`` > 0 truncates, 0 shows all)."""
    rows: List[str] = [
        f"{'tick':>5} {'demand':>9} {'changes':>8} {'mode':<20} "
        f"{'|R|':>6} {'latency':>8} {'repair':>10} {'resolve':>10} "
        f"{'speedup':>8}"
    ]
    by_tick: dict = {}
    for r in result.rows:
        by_tick.setdefault(r.tick, []).append(r)
    ticks = sorted(by_tick)
    shown = ticks if limit <= 0 else ticks[:limit]
    for t in shown:
        group: List[TickRow] = by_tick[t]
        demand = sum(r.demand_total for r in group)
        changes = sum(r.n_changes for r in group)
        costs = [r.cost for r in group if r.cost is not None]
        lats = [r.latency_mean for r in group if r.latency_mean is not None]
        repair = sum(r.repair_ms for r in group)
        # Only engine mode re-solves a tick cold: one row per tick.
        resolve, speedup = group[0].resolve_ms, group[0].speedup
        resolve_txt = f"{resolve:8.2f}ms" if resolve is not None else f"{'—':>10}"
        speedup_txt = f"{speedup:7.2f}x" if speedup is not None else f"{'—':>8}"
        mode = group[0].mode if len(group) == 1 else f"{len(group)} tenants"
        if not all(r.ok for r in group):
            mode = "FAILED"
        cost = str(sum(costs)) if costs else "—"
        lat = (sum(lats) / len(lats)) if lats else None
        rows.append(
            f"{t:>5} {demand:>9} {changes:>8} {mode:<20} "
            f"{cost:>6} {_fmt(lat)} {repair:>8.2f}ms {resolve_txt} {speedup_txt}"
        )
    if limit > 0 and len(ticks) > limit:
        rows.append(f"  ... {len(ticks) - limit} more ticks")
    for reason in _distinct(r.fallback_reason for r in result.rows):
        rows.append(f"  - fallback reason: {reason}")
    for error in _distinct(r.error for r in result.rows):
        rows.append(f"  - repair failure: {error}")
    return "\n".join(rows)
