"""The :class:`PlacementService` façade — the front door for solving.

Every entry point in the repository (CLI verbs, the HTTP daemon, tests,
downstream libraries) funnels solve traffic through this class instead
of calling algorithm functions directly.  One ``solve`` call does, in
order:

1. fingerprint the request (content-addressed, see
   :mod:`repro.service.fingerprint`);
2. consult the LRU result cache — a hit returns immediately with
   ``diagnostics.cache_hit=True``;
3. resolve the solver: explicit name honoured verbatim, otherwise the
   documented auto-selection chain (:mod:`repro.service.selection`);
4. run it through the registry's uniform ``solve`` (validation
   included) and normalise *every* outcome — infeasible, inapplicable,
   budget-exhausted, crashed, invalid — into a typed
   :class:`~repro.service.schema.SolveResponse` with a structured
   error; request-level failures never raise;
5. cache deterministic outcomes (``ok`` and ``infeasible``) and record
   latency/status counters for :meth:`stats`.

The service is thread-safe end to end (locked cache, locked counters),
so the threaded HTTP daemon and library callers share one instance.

The service also fronts the online re-placement layer:
:meth:`PlacementService.start_dynamic` opens a
:class:`~repro.dynamic.DynamicPlacement` session and
:meth:`PlacementService.apply_events` folds change events into it while
keeping the result cache honest — entries keyed by the mutated
instance's old content fingerprint are invalidated (via an
``instance_fp -> request keys`` index) and the incremental repair
result is seeded under the new fingerprint.  See ``docs/service.md``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from hashlib import blake2b
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set

from ..core.bounds import lower_bound
from ..core.instance import ProblemInstance
from ..core.placement import Placement
from ..core.validation import placement_violations
from ..instances.io import (
    canonical_json,
    instance_from_dict,
    instance_to_dict,
    placement_to_dict,
)
from ..runner import registry
from ..runner.result import Status
from ..runner.registry import UnknownSolverError
from ..storage import (
    CachePut,
    CacheRemove,
    DurabilityStats,
    LogRecord,
    RecoveryError,
    SessionClose,
    SessionEvents,
    SessionStart,
    StateStore,
)
from .cache import CacheStats, ResultCache
from .fingerprint import combine_fingerprint, instance_fingerprint
from .schema import Diagnostics, ErrorCode, ErrorInfo, SolveRequest, SolveResponse
from .selection import NoApplicableSolverError, select_solver

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..dynamic import ChangeEvent, DynamicPlacement, RepairOutcome

__all__ = ["PlacementService", "ServiceStats", "UnknownSessionError"]

#: Version tag of the snapshot ``state`` object the service produces.
STATE_SCHEMA_VERSION = 1


class UnknownSessionError(KeyError):
    """``apply_events`` named a dynamic session that does not exist."""

# Deterministic outcomes worth caching: re-solving cannot change them.
_CACHEABLE = (Status.OK, Status.INFEASIBLE)

_STATUS_TO_CODE = {
    Status.INFEASIBLE: ErrorCode.INFEASIBLE,
    Status.INAPPLICABLE: ErrorCode.INAPPLICABLE,
    Status.BUDGET: ErrorCode.BUDGET_EXHAUSTED,
    Status.INVALID: ErrorCode.INVALID_PLACEMENT,
    Status.ERROR: ErrorCode.SOLVER_ERROR,
}


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty list."""
    idx = min(len(sorted_values) - 1, max(0, round(q * (len(sorted_values) - 1))))
    return sorted_values[idx]


def _session_ordinal(session_id: str) -> int:
    """The ``<n>`` in ``dyn-<n>-<fp8>`` (0 for foreign id shapes).

    Replay uses it to fast-forward the session counter so ids minted
    after recovery never collide with recovered ones.
    """
    parts = session_id.split("-")
    try:
        return int(parts[1]) if len(parts) > 1 else 0
    except ValueError:
        return 0


@dataclass(frozen=True)
class ServiceStats:
    """Point-in-time service counters for health checks and reports."""

    requests: int = 0
    by_status: Dict[str, int] = field(default_factory=dict)
    cache: CacheStats = field(default_factory=CacheStats)
    latency_ms_mean: float = 0.0
    latency_ms_p50: float = 0.0
    latency_ms_p95: float = 0.0
    latency_ms_max: float = 0.0
    uptime_s: float = 0.0
    #: Durability counters when a :class:`~repro.storage.StateStore` is
    #: attached (``None`` for an in-memory-only service).
    durability: Optional[DurabilityStats] = None

    def to_wire(self) -> dict:
        wire = {
            "requests": self.requests,
            "by_status": dict(self.by_status),
            "cache": {
                "size": self.cache.size,
                "max_entries": self.cache.max_entries,
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "evictions": self.cache.evictions,
                "hit_rate": self.cache.hit_rate,
            },
            "latency_ms": {
                "mean": self.latency_ms_mean,
                "p50": self.latency_ms_p50,
                "p95": self.latency_ms_p95,
                "max": self.latency_ms_max,
            },
            "uptime_s": self.uptime_s,
        }
        if self.durability is not None:
            wire["durability"] = self.durability.to_wire()
        return wire


class PlacementService:
    """Typed, cached, concurrent solve service over the solver registry.

    Parameters
    ----------
    cache_size:
        Maximum entries in the LRU result cache (``0`` disables it).
    default_budget:
        Budget applied when a request carries none (forwarded only to
        solvers that declare a budget kwarg).
    store:
        Optional :class:`~repro.storage.StateStore` making the service's
        mutable state — dynamic sessions and the result cache — durable:
        every mutation is write-ahead logged before being applied, and
        the constructor replays ``snapshot + log tail`` so a restarted
        service resumes exactly where the old one stopped.  Raises
        :class:`~repro.storage.RecoveryError` when the persisted state
        is structurally damaged.
    """

    # Sliding window of per-request service latencies kept for stats.
    _LATENCY_WINDOW = 2048

    def __init__(
        self,
        cache_size: int = 256,
        default_budget: Optional[int] = None,
        store: Optional[StateStore] = None,
    ) -> None:
        self._cache: ResultCache[SolveResponse] = ResultCache(cache_size)
        self._default_budget = default_budget
        self._lock = threading.Lock()
        self._requests = 0
        self._by_status: Dict[str, int] = {}
        self._latencies_ms: List[float] = []
        self._started = time.monotonic()
        # instance fingerprint -> request cache keys derived from it,
        # so dynamic-session mutations can invalidate precisely.
        self._fp_index: Dict[str, Set[str]] = {}
        self._sessions: Dict[str, "DynamicPlacement"] = {}
        self._session_seq = 0
        self._store: Optional[StateStore] = None
        self._replaying = False
        if store is not None:
            self._attach_store(store)

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Shut the state store down (idempotent).

        The store is closed *without* a snapshot — closing is
        crash-equivalent by design, so recovery paths stay exercised.
        Call :meth:`persist_now` first for a clean handoff (the daemon's
        graceful-shutdown path does).
        """
        with self._lock:
            store, self._store = self._store, None
        if store is not None:
            store.close()

    def __enter__(self) -> "PlacementService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- the core call -------------------------------------------------
    def solve(self, request: SolveRequest) -> SolveResponse:
        """Answer one request; request-level failures never raise.

        Parameters
        ----------
        request:
            The typed request.  ``request.solver=None`` auto-selects
            from the documented fallback chain
            (:mod:`repro.service.selection`); ``request.budget=None``
            falls back to the service default;
            ``request.include_assignments=False`` strips the placement
            from the response (the cached entry keeps it).

        Returns
        -------
        SolveResponse
            Always well-formed: on success ``status="ok"`` with the
            checker-validated placement and diagnostics (cache hit,
            fingerprint, selection reason, solve/service latency); on
            failure the registry status plus a structured
            :class:`~repro.service.schema.ErrorInfo`.  Request-level
            problems (unknown solver, nothing applicable) come back as
            ``status="error"`` responses, never exceptions.
        """
        t0 = time.perf_counter()
        inst_fp = instance_fingerprint(request.instance)
        fp = combine_fingerprint(
            inst_fp, request.solver, request.budget, request.tenant
        )

        cached = self._cache.get(fp)
        if cached is not None:
            response = replace(
                cached,
                request_id=request.request_id,
                placement=(
                    cached.placement if request.include_assignments else None
                ),
                diagnostics=replace(
                    cached.diagnostics,
                    cache_hit=True,
                    service_ms=(time.perf_counter() - t0) * 1e3,
                    # Fresh dict per response: callers may mutate it,
                    # and the cached entry must stay pristine.
                    counters=dict(cached.diagnostics.counters),
                ),
            )
            self._record(response)
            return response

        response = self._compute(request, fp, t0)
        if response.status in _CACHEABLE:
            # Cache the full response (assignments included) so later
            # hits can honour include_assignments either way.  The
            # entry gets its own diagnostics/counters: the object
            # handed back to the caller is mutable, and caller edits
            # must not leak into future cache hits.
            entry = replace(
                response,
                diagnostics=replace(
                    response.diagnostics,
                    counters=dict(response.diagnostics.counters),
                ),
            )
            seq = self._log(
                CachePut(key=fp, instance_fp=inst_fp, response=entry.to_wire())
            )
            self._cache.put(fp, entry)
            self._index_key(inst_fp, fp)
            self._note_applied(seq)
        if not request.include_assignments:
            response = replace(response, placement=None)
        self._record(response)
        return response

    def _compute(
        self, request: SolveRequest, fp: str, t0: float
    ) -> SolveResponse:
        diag = Diagnostics(fingerprint=fp)
        try:
            spec, reason = select_solver(request.instance, request.solver)
        except UnknownSolverError as exc:
            return self._failure(
                request, diag, ErrorCode.UNKNOWN_SOLVER, str(exc), t0
            )
        except NoApplicableSolverError as exc:
            return self._failure(
                request, diag, ErrorCode.NO_APPLICABLE_SOLVER, str(exc), t0
            )
        diag.selection = "explicit" if request.solver is not None else "auto"
        diag.selection_reason = reason

        budget = request.budget
        if budget is None:
            budget = self._default_budget
        result = registry.solve(
            spec.name,
            request.instance,
            budget=budget,
            keep_placement=True,
        )

        diag.solve_ms = result.wall_time * 1e3
        diag.counters = dict(result.counters)
        diag.service_ms = (time.perf_counter() - t0) * 1e3
        error = None
        if result.status != Status.OK:
            error = ErrorInfo(
                code=_STATUS_TO_CODE.get(result.status, ErrorCode.SOLVER_ERROR),
                message=result.error or result.status,
            )
        return SolveResponse(
            status=result.status,
            solver=spec.name,
            n_replicas=result.n_replicas,
            lower_bound=result.lower_bound,
            placement=result.placement,
            diagnostics=diag,
            error=error,
            request_id=request.request_id,
        )

    def _failure(
        self,
        request: SolveRequest,
        diag: Diagnostics,
        code: str,
        message: str,
        t0: float,
    ) -> SolveResponse:
        diag.service_ms = (time.perf_counter() - t0) * 1e3
        return SolveResponse(
            status=Status.ERROR,
            diagnostics=diag,
            error=ErrorInfo(code=code, message=message),
            request_id=request.request_id,
        )

    # -- conveniences --------------------------------------------------
    def solve_instance(
        self,
        instance: ProblemInstance,
        solver: Optional[str] = None,
        *,
        budget: Optional[int] = None,
        include_assignments: bool = True,
        request_id: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> SolveResponse:
        """:meth:`solve` without building the request by hand."""
        return self.solve(
            SolveRequest(
                instance=instance,
                solver=solver,
                budget=budget,
                include_assignments=include_assignments,
                request_id=request_id,
                tenant=tenant,
            )
        )

    def solve_many(
        self, requests: Iterable[SolveRequest]
    ) -> List[SolveResponse]:
        """Solve a batch: :meth:`solve` on every request, in order."""
        return [self.solve(r) for r in requests]

    def check(
        self, instance: ProblemInstance, placement: Placement
    ) -> List[str]:
        """Violations of ``placement`` on ``instance`` (empty = valid).

        Thin façade over the independent checker so service callers
        need no second import surface.
        """
        return placement_violations(instance, placement)

    def solver_info(self) -> List[dict]:
        """Registry introspection: one JSON-able record per solver."""
        from .selection import AUTO_CHAIN

        out = []
        for s in registry.available_solvers():
            out.append({
                "name": s.name,
                "description": s.description,
                "policy": s.policy.value if s.policy is not None else None,
                "exact": s.exact,
                "needs_nod": s.needs_nod,
                "binary_only": s.binary_only,
                "accepts_budget": s.budget_kwarg is not None,
                "in_auto_chain": s.name in AUTO_CHAIN,
            })
        return out

    # -- dynamic sessions (online re-placement) ------------------------
    def start_dynamic(
        self, instance: ProblemInstance, solver: Optional[str] = None
    ) -> str:
        """Open an online re-placement session for ``instance``.

        Parameters
        ----------
        instance:
            The initial snapshot; it is solved immediately to seed the
            session's standing placement.
        solver:
            Forwarded to :class:`~repro.dynamic.DynamicPlacement` —
            ``None`` auto-selects the incremental backend.

        Returns
        -------
        The session id to pass to :meth:`apply_events` /
        :meth:`dynamic_session`.

        Raises
        ------
        InfeasibleInstanceError
            If the initial snapshot has no placement.
        """
        from ..dynamic import DynamicPlacement

        # Solve first: an infeasible snapshot raises here and nothing is
        # logged — the WAL only ever records sessions that opened.
        engine = DynamicPlacement(instance, solver=solver)
        with self._lock:
            self._session_seq += 1
            session_id = f"dyn-{self._session_seq}-{engine.fingerprint()[:8]}"
        seq = self._log(
            SessionStart(
                session_id=session_id,
                instance=instance_to_dict(instance),
                solver=solver,
            )
        )
        with self._lock:
            self._sessions[session_id] = engine
        self._note_applied(seq)
        return session_id

    def dynamic_sessions(self) -> List[dict]:
        """One JSON-able summary per open dynamic session (sorted by id)."""
        with self._lock:
            sessions = sorted(self._sessions.items(), key=lambda kv: kv[0])
        out = []
        for sid, engine in sessions:
            placement = engine.placement
            out.append({
                "session_id": sid,
                "solver": engine.solver_name,
                "fingerprint": engine.fingerprint(),
                "n_replicas": (
                    placement.n_replicas if placement is not None else None
                ),
                "failed_hosts": sorted(engine.failed_hosts),
            })
        return out

    def dynamic_session(self, session_id: str) -> "DynamicPlacement":
        """The engine behind ``session_id`` (:class:`UnknownSessionError`)."""
        try:
            return self._sessions[session_id]
        except KeyError:
            raise UnknownSessionError(session_id) from None

    def close_dynamic(self, session_id: str) -> None:
        """Drop a session (idempotent); cached results stay valid."""
        with self._lock:
            known = session_id in self._sessions
        # Only log closes of sessions that exist: replaying a close for
        # an unknown id is harmless (pop is idempotent), but logging
        # no-ops would bloat the WAL for misbehaving clients.
        seq = self._log(SessionClose(session_id=session_id)) if known else None
        with self._lock:
            self._sessions.pop(session_id, None)
        self._note_applied(seq)

    def apply_events(
        self, session_id: str, events: Sequence["ChangeEvent"]
    ) -> "RepairOutcome":
        """Fold events into a dynamic session, keeping the cache honest.

        The session's instance is mutated by the events, so every
        result cached under its *old* content fingerprint is
        invalidated (the ``instance_fp -> request keys`` index makes
        this precise — untouched instances keep their entries).  When
        the repair succeeded in pure incremental mode with no failed
        hosts, the repaired placement is seeded back into the cache
        under the *new* fingerprint, so a follow-up :meth:`solve` of
        the mutated instance is a hit instead of a re-solve.

        Parameters
        ----------
        session_id:
            Id returned by :meth:`start_dynamic`.
        events:
            A batch of :data:`~repro.dynamic.ChangeEvent`.

        Returns
        -------
        The engine's :class:`~repro.dynamic.RepairOutcome`.

        Raises
        ------
        UnknownSessionError
            If ``session_id`` names no open session.
        """
        from ..dynamic import event_to_wire

        engine = self.dynamic_session(session_id)
        # Log the *events*, not their side effects: cache invalidation
        # and seeding are re-derived on replay through the same
        # `_apply_events_core` path, so one record is one crash-atomic
        # service operation.
        seq = self._log(
            SessionEvents(
                session_id=session_id,
                events=[event_to_wire(e) for e in events],
            )
        )
        outcome = self._apply_events_core(engine, events)
        self._note_applied(seq)
        return outcome

    def _apply_events_core(
        self, engine: "DynamicPlacement", events: Sequence["ChangeEvent"]
    ) -> "RepairOutcome":
        """Fold events into ``engine`` + cache upkeep (shared with replay)."""
        old_fp = instance_fingerprint(engine.instance)
        outcome = engine.apply(events)
        new_fp = instance_fingerprint(engine.instance)
        if new_fp != old_fp:
            self._invalidate_instance(old_fp)
        if (
            outcome.ok
            and outcome.mode == "incremental"
            and not engine.failed_hosts
            and outcome.placement is not None
        ):
            self._seed_cache(engine, new_fp, outcome)
        return outcome

    def _invalidate_instance(self, inst_fp: str) -> None:
        with self._lock:
            keys = self._fp_index.pop(inst_fp, set())
        for key in keys:
            self._cache.remove(key)

    def _seed_cache(
        self, engine: "DynamicPlacement", inst_fp: str, outcome: "RepairOutcome"
    ) -> None:
        """Pre-warm the result cache with an incremental repair result.

        Valid because incremental repair provably equals a from-scratch
        run of the same solver; seeding is skipped for repair/fallback
        modes and failed-host states, whose semantics a plain solve
        would not reproduce.  Seeds the explicit-solver key and, when
        auto-selection would pick the same solver for this instance,
        the ``solver=None`` key — so the common auto-path follow-up
        ``solve`` is a hit too.
        """
        fp = combine_fingerprint(inst_fp, engine.solver_name, None)
        response = SolveResponse(
            status=Status.OK,
            solver=engine.solver_name,
            n_replicas=outcome.cost,
            lower_bound=lower_bound(engine.instance),
            placement=outcome.placement,
            diagnostics=Diagnostics(
                fingerprint=fp,
                selection="dynamic",
                selection_reason=(
                    "seeded by apply_events incremental repair "
                    f"(reused {outcome.stats.nodes_reused}/"
                    f"{outcome.stats.nodes_total} subtrees)"
                ),
                solve_ms=outcome.repair_s * 1e3,
                service_ms=outcome.repair_s * 1e3,
            ),
        )
        self._cache.put(fp, response)
        self._index_key(inst_fp, fp)
        try:
            auto_spec, _reason = select_solver(engine.instance, None)
        except NoApplicableSolverError:  # pragma: no cover - defensive
            return
        if auto_spec.name == engine.solver_name:
            auto_fp = combine_fingerprint(inst_fp, None, None)
            self._cache.put(auto_fp, replace(response, diagnostics=replace(
                response.diagnostics, fingerprint=auto_fp, selection="dynamic",
            )))
            self._index_key(inst_fp, auto_fp)

    def warm_cache(self, entries: Iterable[dict]) -> "tuple[int, int]":
        """Seed the result cache with entries another node computed.

        The cluster router calls this (via ``POST /v1/cache/warm``) when
        this worker rejoins the ring, pushing the durable cache entries
        its ring successors accumulated while it was away — see
        :mod:`repro.cluster.warmup`.  Each entry is the wire shape
        ``{"key", "instance_fp", "response"}``; entries already present
        or with non-cacheable statuses are skipped, accepted ones are
        WAL-logged like any organic cache put (so warmth survives the
        *next* crash too).

        Returns ``(warmed, skipped)``.  Raises
        :class:`~repro.service.schema.WireFormatError` (or ``KeyError``/
        ``TypeError``) on malformed entries — the daemon maps those to
        HTTP 400.
        """
        warmed = 0
        skipped = 0
        for entry in entries:
            key = str(entry["key"])
            response = SolveResponse.from_wire(entry["response"])
            if response.status not in _CACHEABLE or key in self._cache:
                skipped += 1
                continue
            inst_fp = str(entry.get("instance_fp") or "")
            seq = self._log(
                CachePut(
                    key=key, instance_fp=inst_fp, response=response.to_wire()
                )
            )
            self._cache.put(key, response)
            if inst_fp:
                self._index_key(inst_fp, key)
            self._note_applied(seq)
            warmed += 1
        return warmed, skipped

    def _index_key(self, inst_fp: str, request_fp: str) -> None:
        with self._lock:
            self._fp_index.setdefault(inst_fp, set()).add(request_fp)
            overgrown = len(self._fp_index) > max(64, 4 * self._cache.stats().max_entries)
        if overgrown:
            self._prune_fp_index()

    def _prune_fp_index(self) -> None:
        """Drop index entries whose cache keys were all evicted."""
        with self._lock:
            for inst_fp in list(self._fp_index):
                live = {k for k in self._fp_index[inst_fp] if k in self._cache}
                if live:
                    self._fp_index[inst_fp] = live
                else:
                    del self._fp_index[inst_fp]

    # -- durability (WAL + snapshot persistence) -----------------------
    def _attach_store(self, store: StateStore) -> None:
        """Recover persisted state from ``store`` and bind it for logging.

        Runs the snapshot restore and record replay with ``_replaying``
        set, so the mutations they trigger (cache puts, session
        creation, invalidation/seeding from event replay) are *not*
        logged again.  Only after a complete replay is the store bound —
        a failed recovery leaves the service unusable rather than
        half-recovered.
        """
        recovered = store.recover()
        self._replaying = True
        try:
            if recovered.snapshot is not None:
                self._restore_snapshot(recovered.snapshot)
            for seq, record in recovered.records:
                try:
                    self._apply_record(record)
                except RecoveryError:
                    raise
                except Exception as exc:  # noqa: BLE001 — normalise replay
                    raise RecoveryError(
                        f"replay of record seq {seq} "
                        f"({type(record).__name__}) failed — "
                        f"{type(exc).__name__}: {exc}"
                    ) from exc
        finally:
            self._replaying = False
        self._store = store

    def _log(self, record: LogRecord) -> Optional[int]:
        """WAL-append one record; ``None`` when running in-memory.

        Called *before* the mutation the record describes (log before
        apply); pair with :meth:`_note_applied` afterwards.  Never call
        while holding ``self._lock`` — snapshot capture re-enters it.
        """
        store = self._store
        if store is None or self._replaying:
            return None
        return store.append(record)

    def _note_applied(self, seq: Optional[int]) -> None:
        """Advance the store's applied watermark (may auto-snapshot)."""
        if seq is None:
            return
        store = self._store
        if store is not None:
            store.note_applied(seq, self._snapshot_state)

    def persist_now(self) -> Optional[int]:
        """Snapshot + compact immediately; the snapshot's seq, or ``None``.

        The graceful-shutdown path (daemon signal handlers) calls this
        so a restart replays a snapshot instead of the whole log.
        """
        store = self._store
        if store is None:
            return None
        return store.snapshot_now(self._snapshot_state)

    def _snapshot_state(self) -> dict:
        """JSON-able capture of the durable state (sessions + cache)."""
        with self._lock:
            sessions = list(self._sessions.items())
            session_seq = self._session_seq
            key_to_fp = {
                key: inst_fp
                for inst_fp, keys in self._fp_index.items()
                for key in keys
            }
        out_sessions = {}
        for sid, engine in sessions:
            instance, solver, failed = engine.checkpoint()
            out_sessions[sid] = {
                "instance": instance_to_dict(instance),
                "solver": solver,
                "failed": sorted(int(v) for v in failed),
            }
        cache = [
            {
                "key": key,
                "instance_fp": key_to_fp.get(key, ""),
                "response": resp.to_wire(),
            }
            for key, resp in self._cache.entries()
        ]
        return {
            "schema": STATE_SCHEMA_VERSION,
            "session_seq": session_seq,
            "sessions": out_sessions,
            "cache": cache,
        }

    def _restore_snapshot(self, state: dict) -> None:
        """Rebuild sessions and cache from a :meth:`_snapshot_state` dict."""
        from ..dynamic import DynamicPlacement

        if not isinstance(state, dict) or state.get("schema") != STATE_SCHEMA_VERSION:
            raise RecoveryError(
                f"snapshot state schema {state.get('schema')!r} unsupported "
                f"(this service speaks version {STATE_SCHEMA_VERSION})"
            )
        try:
            self._session_seq = int(state.get("session_seq", 0))
            for sid, body in dict(state.get("sessions", {})).items():
                # strict=False: the engine re-solves from the restored
                # snapshot; a currently-infeasible session comes back
                # with no standing placement (exactly its live state)
                # instead of failing recovery.
                self._sessions[str(sid)] = DynamicPlacement(
                    instance_from_dict(body["instance"]),
                    solver=body.get("solver"),
                    failed=frozenset(int(v) for v in body.get("failed", [])),
                    strict=False,
                )
            for entry in list(state.get("cache", [])):
                response = SolveResponse.from_wire(entry["response"])
                self._cache.put(str(entry["key"]), response)
                if entry.get("instance_fp"):
                    self._index_key(str(entry["instance_fp"]), str(entry["key"]))
        except RecoveryError:
            raise
        except Exception as exc:  # noqa: BLE001 — normalise codec failures
            raise RecoveryError(
                f"snapshot state is malformed — {type(exc).__name__}: {exc}"
            ) from exc

    def _apply_record(self, record: LogRecord) -> None:
        """Replay one WAL record through the live mutation paths."""
        from ..dynamic import DynamicPlacement, event_from_wire

        if isinstance(record, CachePut):
            self._cache.put(record.key, SolveResponse.from_wire(record.response))
            if record.instance_fp:
                self._index_key(record.instance_fp, record.key)
        elif isinstance(record, CacheRemove):
            for key in record.keys:
                self._cache.remove(key)
        elif isinstance(record, SessionStart):
            if record.session_id in self._sessions:
                raise RecoveryError(
                    f"duplicate SessionStart for {record.session_id!r}"
                )
            # strict default: the session was only logged after its
            # initial solve succeeded, so the replayed solve must too.
            self._sessions[record.session_id] = DynamicPlacement(
                instance_from_dict(record.instance), solver=record.solver
            )
            self._session_seq = max(
                self._session_seq, _session_ordinal(record.session_id)
            )
        elif isinstance(record, SessionEvents):
            engine = self._sessions.get(record.session_id)
            if engine is None:
                raise RecoveryError(
                    f"SessionEvents for unknown session {record.session_id!r}"
                )
            events = [event_from_wire(e) for e in record.events]
            self._apply_events_core(engine, events)
        elif isinstance(record, SessionClose):
            self._sessions.pop(record.session_id, None)
        else:  # pragma: no cover - decode_record rejects unknown kinds
            raise RecoveryError(f"unknown record type {type(record).__name__}")

    def state_fingerprint(self) -> str:
        """Hex digest of the durable state — the kill-and-replay oracle.

        Hashes the dynamic sessions (id, root fingerprint of instance +
        failed hosts, requested solver, standing placement) and the
        *semantic* content of the result cache — status, solver, cost,
        bound, placement, error — excluding diagnostics, whose wall
        times and memo-dependent selection notes legitimately differ
        between a live run and its replay.  A recovered service with an
        equal fingerprint answers every future request identically.
        """
        from ..dynamic import root_fingerprint

        h = blake2b(digest_size=16)
        with self._lock:
            sessions = sorted(self._sessions.items(), key=lambda kv: kv[0])
            session_seq = self._session_seq
        h.update(str(session_seq).encode())
        for sid, engine in sessions:
            instance, solver, failed = engine.checkpoint()
            placement = engine.placement
            h.update(b"\x00session\x00")
            h.update(sid.encode())
            h.update(root_fingerprint(instance, failed).encode())
            h.update((solver or "").encode())
            h.update(
                canonical_json(placement_to_dict(placement)).encode()
                if placement is not None
                else b"none"
            )
        for key, resp in sorted(self._cache.entries(), key=lambda kv: kv[0]):
            h.update(b"\x00cache\x00")
            h.update(key.encode())
            h.update(canonical_json({
                "status": resp.status,
                "solver": resp.solver,
                "n_replicas": resp.n_replicas,
                "lower_bound": resp.lower_bound,
                "placement": (
                    placement_to_dict(resp.placement)
                    if resp.placement is not None
                    else None
                ),
                "error": resp.error.to_wire() if resp.error is not None else None,
            }).encode())
        return h.hexdigest()

    # -- stats ---------------------------------------------------------
    def _record(self, response: SolveResponse) -> None:
        with self._lock:
            self._requests += 1
            self._by_status[response.status] = (
                self._by_status.get(response.status, 0) + 1
            )
            self._latencies_ms.append(response.diagnostics.service_ms)
            if len(self._latencies_ms) > self._LATENCY_WINDOW:
                del self._latencies_ms[: -self._LATENCY_WINDOW]

    def stats(self) -> ServiceStats:
        """Snapshot of request, cache, latency and durability counters."""
        with self._lock:
            lat = sorted(self._latencies_ms)
            by_status = dict(self._by_status)
            requests = self._requests
            uptime = time.monotonic() - self._started
            store = self._store
        return ServiceStats(
            requests=requests,
            by_status=by_status,
            cache=self._cache.stats(),
            latency_ms_mean=(sum(lat) / len(lat)) if lat else 0.0,
            latency_ms_p50=_percentile(lat, 0.50) if lat else 0.0,
            latency_ms_p95=_percentile(lat, 0.95) if lat else 0.0,
            latency_ms_max=lat[-1] if lat else 0.0,
            uptime_s=uptime,
            durability=store.status() if store is not None else None,
        )
