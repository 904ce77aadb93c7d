"""Trace-driven replay: feed a demand or event trace through the dynamic engine.

:func:`run_replay` is the one runner behind ``repro simulate --replay``
and ``repro simulate --online``.  Given a (possibly 10k–100k node)
instance and a trace, it drives one of two paths:

* **engine mode** (``tenants=1``) — one
  :class:`~repro.dynamic.DynamicPlacement` holds a standing placement
  and every tick is one ``engine.apply(batch)`` followed by one
  :class:`TickRow`.  The batches come from either source:

  - a *demand trace* spec (:mod:`repro.replay.traces`): each tick diffs
    the realized levels against the current snapshot and folds the
    changed clients in as one :class:`~repro.dynamic.DemandEvent`
    batch (the batched fold makes a tick O(n + changes), not
    O(n · changes)); a tick with no change is recorded as ``steady``;
  - an *event trace*: a list of :data:`~repro.dynamic.ChangeEvent`
    batches (:func:`~repro.dynamic.random_event_trace`,
    :func:`~repro.scenarios.failure_storm_trace` or hand-written), one
    batch per tick — demand, host failures and capacity resizes.

  Per tick it records cost, request-weighted client→replica latency
  over a seeded client sample, repair mode and repair latency.

* **service mode** (``tenants > 1``, demand traces only) — the
  multi-tenant story: every tenant's catalogue
  (:mod:`repro.replay.tenants`) is re-solved each tick through a
  :class:`~repro.service.PlacementService` with tenant-namespaced cache
  keys.  Periodic traces (diurnal) revisit demand levels, so after one
  period the service answers from the per-tenant cache — the recorded
  hit rate is the point of the mode.

Every ``check_every`` ticks an audit runs: the independent checker on
a seeded client sample (:func:`repro.scenarios.sampled_violations`)
checks the standing placement, and a tick the engine repaired in
``incremental`` mode is also re-solved cold
(:meth:`DynamicPlacement.resolve_full`) — a cost that differs from the
incremental one is an ``incremental-parity`` violation.  Violations
are carried in the result and fail the CLI run.

Everything is deterministic per ``(instance, trace, horizon, seed,
tenants, solver, rate_scale)``; :meth:`ReplayResult.fingerprint` hashes
exactly the deterministic fields (never wall-clock latencies), so two
runs of the same trace fingerprint identically — the property the CI
smoke job asserts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Dict, Iterator, List, Optional, Sequence, Union

import numpy as np

from ..core.instance import ProblemInstance, instance_fingerprint
from ..core.placement import Placement
from ..dynamic import (
    MODE_INCREMENTAL,
    ChangeEvent,
    DemandEvent,
    DynamicPlacement,
    describe_events,
    event_to_wire,
)
from ..instances.io import canonical_json
from ..scenarios.invariants import Violation, sampled_violations
from .traces import DemandTrace, make_trace

__all__ = ["TickRow", "ReplayResult", "run_replay"]


@dataclass(frozen=True)
class TickRow:
    """Measurements of one replay tick (one tenant)."""

    tick: int
    tenant: int
    demand_total: int
    n_changes: int
    ok: bool
    mode: str
    cost: Optional[int]
    latency_mean: Optional[float]
    repair_ms: float
    cache_hit: bool = False
    #: Cold-resolve time of an audited ``incremental`` tick, else None.
    resolve_ms: Optional[float] = None
    fallback_reason: Optional[str] = None
    error: Optional[str] = None

    @property
    def speedup(self) -> Optional[float]:
        """Cold resolve over incremental repair (> 1: repair wins)."""
        if self.resolve_ms is None or self.repair_ms <= 0:
            return None
        return self.resolve_ms / self.repair_ms

    def to_dict(self) -> dict:
        return {
            "tick": self.tick,
            "tenant": self.tenant,
            "demand_total": self.demand_total,
            "n_changes": self.n_changes,
            "ok": self.ok,
            "mode": self.mode,
            "cost": self.cost,
            "latency_mean": self.latency_mean,
            "repair_ms": self.repair_ms,
            "cache_hit": self.cache_hit,
            "resolve_ms": self.resolve_ms,
            "fallback_reason": self.fallback_reason,
            "error": self.error,
        }


@dataclass
class ReplayResult:
    """Everything one :func:`run_replay` run measured."""

    instance_name: str
    instance_fp: str
    n_nodes: int
    n_clients: int
    trace: str
    horizon: int
    seed: int
    tenants: int
    solver: str
    rate_scale: float
    mode: str  # "engine" | "service"
    rows: List[TickRow] = field(default_factory=list)
    violations: List[Violation] = field(default_factory=list)
    checks_run: int = 0
    parity_checks: int = 0
    repair_failures: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    def fingerprint(self) -> str:
        """Hex digest over the deterministic fields of this run.

        Wall-clock figures (``repair_ms``, ``resolve_ms``) and cache
        temperature (``cache_hit`` — a pre-warmed external service
        legitimately changes it) are excluded; the trace, demand levels,
        costs, latencies, modes and violations all participate.  Equal
        fingerprints ⇒ the two runs agreed on every decision that
        matters.
        """
        h = blake2b(digest_size=16)
        h.update(canonical_json({
            "instance": self.instance_fp,
            "trace": self.trace,
            "horizon": self.horizon,
            "seed": self.seed,
            "tenants": self.tenants,
            "solver": self.solver,
            "rate_scale": self.rate_scale,
            "mode": self.mode,
        }).encode())
        for r in self.rows:
            h.update(canonical_json({
                "t": r.tick,
                "tn": r.tenant,
                "d": r.demand_total,
                "c": r.n_changes,
                "ok": r.ok,
                "m": r.mode,
                "cost": r.cost,
                "lat": (
                    None if r.latency_mean is None
                    else round(r.latency_mean, 9)
                ),
            }).encode())
        for v in self.violations:
            h.update(str(v).encode())
        return h.hexdigest()


def _mean_latency(
    instance: ProblemInstance,
    placement: Optional[Placement],
    sample_clients: List[int],
) -> Optional[float]:
    """Request-weighted mean client→server distance over a client sample."""
    if placement is None:
        return None
    by_client: Dict[int, List] = {}
    for (c, s), amount in placement.assignments.items():
        by_client.setdefault(c, []).append((s, amount))
    tree = instance.tree
    total = 0.0
    weight = 0
    for c in sample_clients:
        for s, amount in by_client.get(c, ()):
            total += tree.distance_to_ancestor(c, s) * amount
            weight += amount
    if weight == 0:
        return 0.0
    return total / weight


def _client_sample(
    clients: List[int], sample: int, seed: int
) -> List[int]:
    if len(clients) <= sample:
        return list(clients)
    rng = np.random.default_rng([seed, 0x5A])
    idx = rng.choice(len(clients), size=sample, replace=False)
    return [clients[int(i)] for i in sorted(idx)]


#: An event trace: one batch of change events per tick.
EventTrace = Sequence[Sequence[ChangeEvent]]


def run_replay(
    instance: ProblemInstance,
    trace: Union[str, EventTrace] = "diurnal+flash",
    *,
    horizon: Optional[int] = None,
    seed: int = 0,
    tenants: int = 1,
    solver: Optional[str] = None,
    rate_scale: float = 1.0,
    check_every: int = 8,
    sample: int = 256,
    trace_params: Optional[Dict[str, dict]] = None,
    service=None,
) -> ReplayResult:
    """Replay ``trace`` over ``instance``, one engine apply per tick.

    Parameters
    ----------
    instance:
        The base instance; its demands are a demand trace's base rates.
    trace:
        A demand-trace spec, ``+``-composable (see
        :data:`repro.replay.TRACES`), or an event trace: a list of
        :data:`~repro.dynamic.ChangeEvent` batches, one per tick.
    horizon:
        Number of unit-time ticks of a demand trace (default 48).  An
        event trace runs one tick per batch and takes no horizon.
    seed:
        Master seed: trace draw, tenant catalogues, client/invariant
        sampling all derive from it deterministically.
    tenants:
        ``1`` → engine mode; ``> 1`` → per-tenant service mode (demand
        traces only).
    solver:
        Forwarded to the engine / service (``None`` auto-selects).
    rate_scale:
        Global multiplier on base demand (must be positive; demand
        traces only).
    check_every:
        Audit every this many ticks (``0`` disables): the checker on
        a client sample, plus a cold re-solve of an ``incremental`` tick.
    sample:
        Client-sample size for latency and invariant checks.
    trace_params:
        Optional per-component overrides of a demand trace, e.g.
        ``{"flash": {"magnitude": 12.0}}``.
    service:
        Service mode only: an existing
        :class:`~repro.service.PlacementService` to solve through (a
        fresh private one is created otherwise).

    Raises
    ------
    ValueError
        For an unknown trace name, non-positive horizon/tenants/
        rate_scale, an empty event trace, or an event trace given a
        demand-only parameter — the CLI's validation surface.
    InfeasibleInstanceError
        When the *initial* snapshot admits no placement (engine mode).
    """
    if rate_scale <= 0:
        raise ValueError(f"rate_scale must be positive, got {rate_scale}")
    if tenants <= 0:
        raise ValueError(f"tenants must be positive, got {tenants}")
    if check_every < 0:
        raise ValueError(f"check_every must be non-negative, got {check_every}")
    if sample <= 0:
        raise ValueError(f"sample must be positive, got {sample}")
    tree = instance.tree
    clients = list(tree.clients)
    if isinstance(trace, str):
        demand_trace = make_trace(
            trace,
            n_clients=len(clients),
            horizon=48 if horizon is None else horizon,
            seed=seed,
            params=trace_params,
        )
        label, horizon = demand_trace.spec, demand_trace.horizon
    else:
        batches = [list(batch) for batch in trace]
        _check_event_trace(batches, horizon, tenants, rate_scale, trace_params)
        label, horizon = _event_trace_label(batches), len(batches)

    result = ReplayResult(
        instance_name=instance.name or "instance",
        instance_fp=instance_fingerprint(instance),
        n_nodes=len(tree),
        n_clients=len(clients),
        trace=label,
        horizon=horizon,
        seed=seed,
        tenants=tenants,
        solver=solver or "auto",
        rate_scale=rate_scale,
        mode="engine" if tenants == 1 else "service",
    )
    sample_clients = _client_sample(clients, sample, seed)
    if tenants > 1:
        _replay_service(
            instance, demand_trace, result,
            solver=solver, rate_scale=rate_scale, tenants=tenants,
            check_every=check_every, sample=sample,
            sample_clients=sample_clients, seed=seed, service=service,
        )
        return result
    if isinstance(trace, str):
        levels = demand_trace.levels(
            np.array([tree.requests(c) for c in clients], dtype=np.int64),
            capacity=instance.capacity,
            scale=rate_scale,
        )
        # Tick 0's levels become the engine's *initial* snapshot, so the
        # whole run — including the first placement — reflects the trace.
        engine = DynamicPlacement(
            _with_levels(instance, clients, levels[0]), solver=solver
        )
        ticks = _demand_batches(clients, levels)
    else:
        engine = DynamicPlacement(instance, solver=solver)
        ticks = iter(batches)
    _replay_engine(
        engine, ticks, result,
        check_every=check_every, sample=sample,
        sample_clients=sample_clients, seed=seed,
    )
    return result


def _check_event_trace(
    batches: List[List[ChangeEvent]],
    horizon: Optional[int],
    tenants: int,
    rate_scale: float,
    trace_params: Optional[Dict[str, dict]],
) -> None:
    """Reject what an event trace cannot honour (engine mode only)."""
    if not batches:
        raise ValueError("an event trace needs at least one batch")
    if tenants != 1:
        raise ValueError("an event trace replays through the engine: tenants must be 1")
    if horizon is not None or rate_scale != 1.0 or trace_params is not None:
        raise ValueError(
            "horizon, rate_scale and trace_params apply to demand traces "
            "only; an event trace runs one tick per batch"
        )


def _event_trace_label(batches: List[List[ChangeEvent]]) -> str:
    """``events:<digest>`` — names the trace in the run fingerprint."""
    h = blake2b(digest_size=8)
    h.update(canonical_json(
        [[event_to_wire(e) for e in batch] for batch in batches]
    ).encode())
    return f"events:{h.hexdigest()}"


def _demand_batches(
    clients: List[int], levels: np.ndarray
) -> Iterator[Optional[List[ChangeEvent]]]:
    """Per tick, the demand events to the next levels (None: no change).

    Tick 0 is the engine's initial snapshot, so it never carries a batch.
    """
    yield None
    for t in range(1, len(levels)):
        changed = np.nonzero(levels[t] != levels[t - 1])[0]
        yield [
            DemandEvent(clients[int(i)], int(levels[t, i])) for i in changed
        ] or None


def _replay_engine(
    engine: DynamicPlacement,
    ticks: Iterator[Optional[List[ChangeEvent]]],
    result: ReplayResult,
    *,
    check_every: int,
    sample: int,
    sample_clients: List[int],
    seed: int,
) -> None:
    """The tick loop: one ``engine.apply`` and one :class:`TickRow` each."""
    for t, batch in enumerate(ticks):
        if batch is None:
            outcome = None
            placement = engine.placement
            ok, mode = placement is not None, "steady"
            cost = placement.n_replicas if placement is not None else None
        else:
            outcome = engine.apply(batch)
            placement = outcome.placement
            ok, mode, cost = outcome.ok, outcome.mode, outcome.cost
        resolve_ms = None
        if check_every and t % check_every == 0:
            if ok and mode == MODE_INCREMENTAL:
                resolve_ms = _audit_parity(engine, t, batch, cost, result)
            if engine.placement is not None:
                result.checks_run += 1
                result.violations.extend(sampled_violations(
                    engine.instance,
                    engine.placement,
                    seed=seed + t,
                    max_clients=sample,
                    cell=f"tick {t}",
                    solver=engine.solver_name,
                ))
        result.rows.append(TickRow(
            tick=t,
            tenant=0,
            demand_total=engine.instance.tree.total_requests,
            n_changes=0 if batch is None else len(batch),
            ok=ok,
            mode=mode,
            cost=cost,
            latency_mean=_mean_latency(
                engine.instance, placement, sample_clients
            ),
            repair_ms=0.0 if outcome is None else outcome.repair_s * 1e3,
            resolve_ms=resolve_ms,
            fallback_reason=None if outcome is None else outcome.fallback_reason,
            error=None if outcome is None else outcome.error,
        ))
    result.repair_failures = engine.stats().repair_failures


def _audit_parity(
    engine: DynamicPlacement,
    t: int,
    batch: Optional[List[ChangeEvent]],
    cost: Optional[int],
    result: ReplayResult,
) -> float:
    """Cold-solve the snapshot; flag a cost the incremental tick missed.

    Returns the cold-resolve time in ms.
    """
    cold, cold_s = engine.resolve_full()
    cold_cost = cold.n_replicas if cold is not None else None
    result.parity_checks += 1
    if cold_cost != cost:
        events = describe_events(batch) if batch else "no change"
        result.violations.append(Violation(
            "incremental-parity", f"tick {t}", engine.solver_name,
            f"{events}: incremental cost {cost} != scratch cost {cold_cost}",
        ))
    return cold_s * 1e3


def _replay_service(
    instance: ProblemInstance,
    demand_trace: DemandTrace,
    result: ReplayResult,
    *,
    solver: Optional[str],
    rate_scale: float,
    tenants: int,
    check_every: int,
    sample: int,
    sample_clients: List[int],
    seed: int,
    service,
) -> None:
    from ..service import PlacementService
    from .tenants import tenant_instances

    own_service = service is None
    svc = PlacementService(cache_size=4 * tenants * demand_trace.horizon) \
        if own_service else service
    try:
        catalogues = tenant_instances(instance, tenants, seed=seed)
        clients = list(instance.tree.clients)
        bases = [
            np.array(
                [cat.tree.requests(c) for c in clients], dtype=np.int64
            )
            for cat in catalogues
        ]
        level_matrices = [
            demand_trace.levels(
                bases[k], capacity=cat.capacity, scale=rate_scale
            )
            for k, cat in enumerate(catalogues)
        ]
        for t in range(demand_trace.horizon):
            for k, cat in enumerate(catalogues):
                lv = level_matrices[k][t]
                inst_t = _with_levels(cat, clients, lv)
                resp = svc.solve_instance(
                    inst_t, solver, tenant=f"tenant-{k}"
                )
                hit = bool(resp.diagnostics.cache_hit)
                result.cache_hits += int(hit)
                result.cache_misses += int(not hit)
                result.rows.append(TickRow(
                    tick=t,
                    tenant=k,
                    demand_total=int(lv.sum()),
                    n_changes=0,
                    ok=resp.ok,
                    mode=f"service:{resp.status}",
                    cost=resp.n_replicas,
                    latency_mean=_mean_latency(
                        inst_t, resp.placement, sample_clients
                    ),
                    repair_ms=resp.diagnostics.service_ms,
                    cache_hit=hit,
                ))
                if (
                    check_every
                    and t % check_every == 0
                    and resp.placement is not None
                ):
                    result.checks_run += 1
                    result.violations.extend(sampled_violations(
                        inst_t,
                        resp.placement,
                        seed=seed + t,
                        max_clients=sample,
                        cell=f"tick {t} tenant {k}",
                        solver=resp.solver or "-",
                    ))
    finally:
        if own_service:
            svc.close()


def _with_levels(
    instance: ProblemInstance, clients: List[int], levels: np.ndarray
) -> ProblemInstance:
    """``instance`` with client demands replaced by ``levels``."""
    tree = instance.tree
    requests = [0] * len(tree)
    for c, lvl in zip(clients, levels):
        requests[c] = int(lvl)
    return ProblemInstance(
        tree.with_requests(requests),
        instance.capacity,
        instance.dmax,
        instance.policy,
        instance.name,
    )
