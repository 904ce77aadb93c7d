"""The online re-placement engine: :class:`DynamicPlacement`.

A :class:`DynamicPlacement` wraps a standing ``(instance, placement)``
pair and keeps the placement current as :mod:`change events
<repro.dynamic.events>` arrive, re-solving *incrementally* — only the
subtrees an event dirtied are re-folded (see
:mod:`repro.dynamic.incremental`) — instead of from scratch every tick.

Repair strategy per :meth:`apply` call, in order of preference:

1. **incremental** — the memoized backend re-folds the dirty root
   path; the result provably equals a from-scratch solve.  Available
   for NoD instances: ``multiple-nod-dp`` (failures handled exactly via
   forbidden hosts) and ``single-nod`` (demand/capacity events).
2. **incremental + greedy repair** — Single-policy failures: the
   greedy pins replica sites, so the engine solves ignoring failures
   and then reroutes orphaned demand off failed hosts with
   :func:`repro.dynamic.repair.repair_placement`.  Cost may drift
   above the solver's figure; the drift is visible in the outcome.
3. **full-resolve fallback** — distance-constrained instances (and any
   explicitly requested non-incremental solver): optimal substructure
   does not survive the subtree boundary (a served client's distance
   slack depends on where *outside* the subtree its server sits), so
   every event batch re-solves through the registry.  The outcome
   records the documented reason.

A failed repair (the new snapshot is infeasible, or greedy repair finds
no routing) leaves the engine without a standing placement until a
later batch succeeds; :attr:`RepairOutcome.ok` and the engine's
:attr:`repair_failures` counter record it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import FrozenSet, Optional, Sequence, Tuple

from ..core.errors import InfeasibleInstanceError, InvalidInstanceError, ReproError
from ..core.instance import ProblemInstance, instance_fingerprint
from ..core.placement import Placement
from ..core.policies import Policy
from .events import ChangeEvent, apply_events_batch, describe_events
from .incremental import (
    IncrementalNodDP,
    IncrementalSingleNod,
    IncrementalStats,
    IncrementalUnsupported,
)
from .repair import repair_placement

__all__ = [
    "DynamicPlacement",
    "RepairOutcome",
    "DynamicStats",
    "MODE_INCREMENTAL",
    "MODE_INCREMENTAL_REPAIR",
    "MODE_FULL_RESOLVE",
]

#: Repair modes recorded on :class:`RepairOutcome`.
MODE_INCREMENTAL = "incremental"
MODE_INCREMENTAL_REPAIR = "incremental+repair"
MODE_FULL_RESOLVE = "full-resolve"


@dataclass(frozen=True)
class RepairOutcome:
    """Result of folding one event batch into the standing placement.

    ``instance`` and ``failed`` are the snapshot the batch left the
    engine with (the unchanged one for a rejected batch).  Its content
    key, :attr:`fingerprint`, is computed on first read, so an apply
    whose caller never asks for it costs no O(n) hash.
    """

    ok: bool
    mode: str
    events: Tuple[ChangeEvent, ...]
    placement: Optional[Placement] = None
    cost: Optional[int] = None
    repair_s: float = 0.0
    fallback_reason: Optional[str] = None
    stats: IncrementalStats = field(default_factory=IncrementalStats)
    error: Optional[str] = None
    instance: ProblemInstance = field(kw_only=True, compare=False, repr=False)
    failed: FrozenSet[int] = field(kw_only=True, compare=False, repr=False)

    @cached_property
    def fingerprint(self) -> str:
        """Content key of this outcome's snapshot and failed hosts
        (:func:`~repro.core.instance.instance_fingerprint`).

        It names the state this apply produced, whatever the engine
        has applied since; the first read computes it, later reads
        return the same string.
        """
        return instance_fingerprint(self.instance, self.failed)

    def describe(self) -> str:
        """One-line summary for logs and reports."""
        head = f"[{self.mode}] {describe_events(self.events)}: "
        if not self.ok:
            return head + f"FAILED ({self.error})"
        return head + (
            f"|R|={self.cost} in {self.repair_s * 1e3:.2f}ms "
            f"(reused {self.stats.nodes_reused}/{self.stats.nodes_total} subtrees)"
        )


@dataclass(frozen=True)
class DynamicStats:
    """Lifetime counters of one :class:`DynamicPlacement`."""

    applies: int = 0
    repair_failures: int = 0
    fallbacks: int = 0
    events_seen: int = 0


class DynamicPlacement:
    """A standing placement kept current under a stream of events.

    Parameters
    ----------
    instance:
        The initial problem snapshot.  NoD instances get an incremental
        backend matching their policy; distance-constrained instances
        run in full-resolve fallback mode.
    solver:
        ``None`` picks the backend automatically.  Naming the backend's
        own solver (``"multiple-nod-dp"`` / ``"single-nod"``) is
        equivalent; any other registered name forces full-resolve mode
        through that solver.
    failed:
        Hosts already crashed before this engine existed — used by the
        storage layer to restore a session from a snapshot.  The initial
        solve honours them exactly like replayed failure events.
    strict:
        With ``strict=False`` an unsolvable initial snapshot leaves the
        engine standing with ``placement=None`` (the state a live engine
        reaches after a failed repair) instead of raising — again for
        snapshot restore, where that is a legitimate persisted state.

    Raises
    ------
    InfeasibleInstanceError
        If the initial snapshot has no placement (``strict=True`` only).
    """

    def __init__(
        self,
        instance: ProblemInstance,
        solver: Optional[str] = None,
        *,
        failed: FrozenSet[int] = frozenset(),
        strict: bool = True,
    ) -> None:
        self._instance = instance
        self._failed: FrozenSet[int] = frozenset(failed)
        self._backend = None
        self._solver_name = solver
        if not instance.has_distance_constraint:
            if instance.policy is Policy.MULTIPLE and solver in (
                None,
                IncrementalNodDP.name,
            ):
                self._backend = IncrementalNodDP()
            elif instance.policy is Policy.SINGLE and solver in (
                None,
                IncrementalSingleNod.name,
            ):
                self._backend = IncrementalSingleNod()
        self._placement: Optional[Placement] = None
        # Memoized content key of (_instance, _failed); see fingerprint().
        self._key: Optional[str] = None
        self._applies = 0
        self._repair_failures = 0
        self._fallbacks = 0
        self._events_seen = 0
        #: Serialises apply/resolve_full/checkpoint.  The service holds
        #: it across a batch's log append and apply, and across a
        #: session's close, so its log order is its apply order.
        self.lock = threading.RLock()
        try:
            placement, _stats, _mode, _reason = self._solve_current()
        except ReproError:
            if strict:
                raise
            # Snapshot restore of a session whose last repair failed:
            # the persisted state legitimately has no standing placement.
            placement = None
        if placement is None and strict:
            raise InfeasibleInstanceError(
                "initial snapshot admits no placement after failure repair"
            )
        self._placement = placement

    # -- introspection -------------------------------------------------
    @property
    def instance(self) -> ProblemInstance:
        """The current (mutated) problem snapshot."""
        return self._instance

    @property
    def placement(self) -> Optional[Placement]:
        """The standing placement (``None`` after a failed repair)."""
        return self._placement

    @property
    def failed_hosts(self) -> FrozenSet[int]:
        """Nodes that crashed so far (never host again)."""
        return self._failed

    @property
    def solver_name(self) -> str:
        """The solver semantics this engine maintains."""
        if self._backend is not None:
            return self._backend.name
        return self._solver_name or "auto"

    @property
    def incremental(self) -> bool:
        """True when an incremental backend is active."""
        return self._backend is not None

    @property
    def requested_solver(self) -> Optional[str]:
        """The solver name this engine was constructed with (``None`` = auto).

        Distinct from :attr:`solver_name` (the resolved semantics): a
        restored engine must be rebuilt from the *requested* name so
        auto-selection re-runs identically.
        """
        return self._solver_name

    def checkpoint(
        self,
    ) -> Tuple[ProblemInstance, Optional[str], FrozenSet[int]]:
        """Atomic ``(instance, requested_solver, failed_hosts)`` snapshot.

        Taken under the engine lock so the storage layer never captures
        a half-applied event batch.
        """
        with self.lock:
            return self._instance, self._solver_name, self._failed

    def fingerprint(self) -> str:
        """Content key of the current snapshot and its failed hosts
        (:func:`~repro.core.instance.instance_fingerprint`).

        Memoized until the next batch changes the snapshot.  An apply
        does not compute it: its :class:`RepairOutcome` keys its own
        snapshot on first read.
        """
        with self.lock:
            if self._key is None:
                self._key = instance_fingerprint(self._instance, self._failed)
            return self._key

    def stats(self) -> DynamicStats:
        """Lifetime apply/failure/fallback counters."""
        return DynamicStats(
            applies=self._applies,
            repair_failures=self._repair_failures,
            fallbacks=self._fallbacks,
            events_seen=self._events_seen,
        )

    # -- the core call -------------------------------------------------
    def apply(self, events: Sequence[ChangeEvent]) -> RepairOutcome:
        """Fold an event batch into the snapshot and repair the placement.

        Parameters
        ----------
        events:
            The batch, applied atomically: the snapshot is updated by
            every event first, then repaired once.

        Returns
        -------
        A :class:`RepairOutcome` — never raises for repair-level
        failures (infeasible snapshot, unreroutable orphan, a
        malformed event): those come back with ``ok=False`` and the
        engine keeps accepting events.  A batch containing an invalid
        event is rejected *whole* — the snapshot is untouched.
        """
        with self.lock:
            return self._apply_locked(tuple(events))

    def _apply_locked(self, events: Tuple[ChangeEvent, ...]) -> RepairOutcome:
        t0 = time.perf_counter()
        # Fold into locals first: a malformed event mid-batch must not
        # leave the engine with a half-applied snapshot.  The batched
        # fold rebuilds the tree once per batch, not once per demand
        # event, which is what makes trace replay viable at 10k nodes.
        try:
            instance, newly_failed = apply_events_batch(self._instance, events)
            failed = self._failed | newly_failed
        except InvalidInstanceError as exc:
            return RepairOutcome(
                ok=False,
                mode=self._mode_hint(),
                events=events,
                repair_s=time.perf_counter() - t0,
                error=f"rejected batch: {type(exc).__name__}: {exc}",
                instance=self._instance,
                failed=self._failed,
            )
        self._instance, self._failed = instance, failed
        self._key = None
        self._applies += 1
        self._events_seen += len(events)

        try:
            placement, stats, mode, reason = self._solve_current()
        except ReproError as exc:
            self._placement = None
            self._repair_failures += 1
            return RepairOutcome(
                ok=False,
                mode=self._mode_hint(),
                events=events,
                repair_s=time.perf_counter() - t0,
                error=f"{type(exc).__name__}: {exc}",
                instance=instance,
                failed=failed,
            )
        if placement is None:
            self._placement = None
            self._repair_failures += 1
            return RepairOutcome(
                ok=False,
                mode=mode,
                events=events,
                repair_s=time.perf_counter() - t0,
                fallback_reason=reason,
                error="greedy repair could not reroute orphaned demand",
                instance=instance,
                failed=failed,
            )
        if mode != MODE_INCREMENTAL:
            self._fallbacks += 1
        self._placement = placement
        return RepairOutcome(
            ok=True,
            mode=mode,
            events=events,
            placement=placement,
            cost=placement.n_replicas,
            repair_s=time.perf_counter() - t0,
            fallback_reason=reason,
            stats=stats,
            instance=instance,
            failed=failed,
        )

    def resolve_full(self) -> Tuple[Optional[Placement], float]:
        """Cold from-scratch solve of the current snapshot.

        Runs the same solver semantics with an empty memo (a fresh
        backend), so the result is directly comparable with the
        standing incremental placement — the repair-vs-resolve report
        is built on this pairing.  Returns ``(placement, seconds)``;
        ``placement`` is ``None`` when the snapshot is unsolvable.
        """
        with self.lock:
            t0 = time.perf_counter()
            try:
                if self._backend is not None:
                    cold = type(self._backend)()
                    placement, _stats, _mode, _reason = self._solve_with(cold)
                else:
                    placement, _stats, _mode, _reason = self._solve_registry()
            except ReproError:
                return None, time.perf_counter() - t0
            return placement, time.perf_counter() - t0

    # -- internals -----------------------------------------------------
    def _mode_hint(self) -> str:
        return (
            MODE_INCREMENTAL if self._backend is not None else MODE_FULL_RESOLVE
        )

    def _solve_current(self):
        if self._backend is not None:
            return self._solve_with(self._backend)
        return self._solve_registry()

    def _solve_with(self, backend):
        """Solve via an incremental backend, with the repair fallback."""
        try:
            placement, stats = backend.solve(self._instance, self._failed)
            return placement, stats, MODE_INCREMENTAL, None
        except IncrementalUnsupported as exc:
            reason = str(exc)
        # Single policy + failures: solve ignoring failures, then
        # reroute demand off failed hosts greedily.
        placement, stats = backend.solve(self._instance, frozenset())
        placement = self._repair_failed(placement)
        return placement, stats, MODE_INCREMENTAL_REPAIR, reason

    def _solve_registry(self):
        """Full-resolve fallback through the solver registry."""
        from ..runner import registry
        from ..service.selection import select_solver

        spec, reason = select_solver(self._instance, self._solver_name)
        result = registry.solve(spec.name, self._instance, keep_placement=True)
        if result.status != "ok" or result.placement is None:
            raise InfeasibleInstanceError(
                f"full re-solve via {spec.name!r} failed: "
                f"{result.error or result.status}"
            )
        placement = self._repair_failed(result.placement)
        why = (
            "distance constraint breaks subtree optimal substructure"
            if self._instance.has_distance_constraint
            else f"no incremental backend ({reason})"
        )
        return placement, IncrementalStats(), MODE_FULL_RESOLVE, why

    def _repair_failed(self, placement: Placement) -> Optional[Placement]:
        """Move any replica off a failed host via greedy repair."""
        if not self._failed or not (placement.replicas & self._failed):
            return placement
        rr = repair_placement(self._instance, placement, self._failed)
        return rr.placement if rr is not None else None
