"""Change events consumed by the online re-placement engine.

The static model solves one snapshot; a running deployment sees the
snapshot *drift*: client demand rises and falls, machines crash, and
operators resize server capacity.  This module types that drift as three
event kinds, all referring to an existing tree topology (the node set is
immutable — growing the tree is a new instance, not an event):

* :class:`DemandEvent` — client ``client`` now issues ``requests``
  requests per unit (an absolute level, not a delta, so event traces are
  replayable from any point);
* :class:`FailureEvent` — ``node`` crashed and may never host a replica
  again (it still routes traffic: the network position survives, the
  machine does not — the same model as :mod:`repro.dynamic.repair`);
* :class:`CapacityEvent` — the global per-replica capacity ``W`` becomes
  ``capacity`` (a fleet-wide resize; it dirties every subtree by
  definition).

:func:`apply_event` folds one event into a
:class:`~repro.core.instance.ProblemInstance` (returning the new
instance plus the failed-host delta), and :func:`random_event_trace`
draws seeded randomized traces for experiments and property tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.errors import InvalidInstanceError
from ..core.instance import ProblemInstance

__all__ = [
    "DemandEvent",
    "FailureEvent",
    "CapacityEvent",
    "ChangeEvent",
    "apply_event",
    "apply_events_batch",
    "random_event_trace",
    "describe_events",
    "event_to_wire",
    "event_from_wire",
]


@dataclass(frozen=True)
class DemandEvent:
    """Client ``client`` now issues ``requests`` requests per unit."""

    client: int
    requests: int

    def describe(self) -> str:
        return f"demand[{self.client}]={self.requests}"


@dataclass(frozen=True)
class FailureEvent:
    """``node`` crashed and can no longer host a replica."""

    node: int

    def describe(self) -> str:
        return f"fail[{self.node}]"


@dataclass(frozen=True)
class CapacityEvent:
    """The global per-replica capacity ``W`` becomes ``capacity``."""

    capacity: int

    def describe(self) -> str:
        return f"capacity={self.capacity}"


ChangeEvent = Union[DemandEvent, FailureEvent, CapacityEvent]


def apply_event(
    instance: ProblemInstance,
    event: ChangeEvent,
) -> Tuple[ProblemInstance, Optional[int]]:
    """Fold ``event`` into ``instance``.

    Parameters
    ----------
    instance:
        The current problem snapshot.
    event:
        One :data:`ChangeEvent`.

    Returns
    -------
    ``(new_instance, newly_failed)`` — the updated instance and, for
    :class:`FailureEvent`, the node that just crashed (``None``
    otherwise; failed-host bookkeeping lives in the engine, not on the
    instance, because the paper's instance model has no failure notion).

    Raises
    ------
    InvalidInstanceError
        If the event is inconsistent with the topology: a demand event
        naming an internal node or carrying a negative level, or a
        capacity event with a non-positive ``W``.
    """
    tree = instance.tree
    if isinstance(event, DemandEvent):
        if not 0 <= event.client < len(tree):
            raise InvalidInstanceError(
                f"demand event names unknown node {event.client}"
            )
        if not tree.is_leaf(event.client):
            raise InvalidInstanceError(
                f"demand event targets internal node {event.client}; only "
                "clients (leaves) issue requests"
            )
        if event.requests < 0:
            raise InvalidInstanceError(
                f"demand event carries negative level {event.requests}"
            )
        return (
            ProblemInstance(
                tree.with_demands({event.client: event.requests}),
                instance.capacity,
                instance.dmax,
                instance.policy,
                instance.name,
            ),
            None,
        )
    if isinstance(event, FailureEvent):
        if not 0 <= event.node < len(tree):
            raise InvalidInstanceError(
                f"failure event names unknown node {event.node}"
            )
        return instance, event.node
    if isinstance(event, CapacityEvent):
        if event.capacity <= 0:
            raise InvalidInstanceError(
                f"capacity event carries non-positive W {event.capacity}"
            )
        return (
            ProblemInstance(
                tree,
                event.capacity,
                instance.dmax,
                instance.policy,
                instance.name,
            ),
            None,
        )
    raise InvalidInstanceError(f"unknown event type {type(event).__name__}")


def apply_events_batch(
    instance: ProblemInstance,
    events: Sequence[ChangeEvent],
) -> Tuple[ProblemInstance, FrozenSet[int]]:
    """Fold a whole event batch into ``instance`` with one demand copy.

    Semantically identical to folding the batch through
    :func:`apply_event` one event at a time (demand events are absolute
    levels, so last-wins per client; capacity likewise), but the demand
    updates are collected into a single
    :meth:`~repro.core.tree.Tree.with_demands` copy.  That copy shares
    the validated topology and, when the tree's flat layout is
    compiled, derives the new layout along the changed clients' root
    paths, so a batch of ``k`` demand events costs O(k · depth) Python
    steps plus C-speed column copies.  The replay layer leans on this:
    a sparse tick changes a handful of clients of a 10k-node tree, a
    diurnal tick ~6k of them.

    Validation matches :func:`apply_event` exactly and is performed
    *before* any instance is built, so — like the engine's own batch
    contract — an invalid event anywhere in the batch rejects the whole
    batch with ``InvalidInstanceError`` and no partial state.

    Returns ``(new_instance, newly_failed)`` where ``newly_failed`` is
    the frozenset of nodes crashed by this batch.
    """
    tree = instance.tree
    n = len(tree)
    levels: dict = {}
    capacity = instance.capacity
    newly_failed = set()
    for event in events:
        if isinstance(event, DemandEvent):
            if not 0 <= event.client < n:
                raise InvalidInstanceError(
                    f"demand event names unknown node {event.client}"
                )
            if not tree.is_leaf(event.client):
                raise InvalidInstanceError(
                    f"demand event targets internal node {event.client}; "
                    "only clients (leaves) issue requests"
                )
            if event.requests < 0:
                raise InvalidInstanceError(
                    f"demand event carries negative level {event.requests}"
                )
            levels[event.client] = event.requests
        elif isinstance(event, FailureEvent):
            if not 0 <= event.node < n:
                raise InvalidInstanceError(
                    f"failure event names unknown node {event.node}"
                )
            newly_failed.add(event.node)
        elif isinstance(event, CapacityEvent):
            if event.capacity <= 0:
                raise InvalidInstanceError(
                    f"capacity event carries non-positive W {event.capacity}"
                )
            capacity = event.capacity
        else:
            raise InvalidInstanceError(
                f"unknown event type {type(event).__name__}"
            )
    new_tree = tree.with_demands(levels) if levels else tree
    if new_tree is tree and capacity == instance.capacity:
        return instance, frozenset(newly_failed)
    return (
        ProblemInstance(
            new_tree,
            capacity,
            instance.dmax,
            instance.policy,
            instance.name,
        ),
        frozenset(newly_failed),
    )


def random_event_trace(
    instance: ProblemInstance,
    *,
    steps: int = 20,
    events_per_step: int = 1,
    seed: int = 0,
    p_fail: float = 0.0,
    p_capacity: float = 0.0,
    failed: FrozenSet[int] = frozenset(),
    fail_leaves: bool = False,
) -> List[List[ChangeEvent]]:
    """Draw a seeded randomized event trace for ``instance``.

    Each of the ``steps`` entries is a batch of ``events_per_step``
    events.  Every event is a demand change by default; with probability
    ``p_fail`` it is a failure of a not-yet-failed non-root node, and
    with probability ``p_capacity`` a capacity resize within a factor of
    two of the current ``W``.  Demand levels are drawn Poisson around
    the current level (capped at ``W`` so Single instances stay
    feasible).  ``failed`` seeds the already-crashed set so traces can
    be extended.

    Failure events target internal nodes — *server* machines — unless
    ``fail_leaves=True``: a crashed client-host under the Single policy
    is frequently unrepairable (its whole demand must move to one
    ancestor with room), which is a modelling choice, not an engine
    property worth benchmarking by default.
    """
    if steps <= 0:
        raise ValueError(f"steps must be positive, got {steps}")
    if events_per_step <= 0:
        raise ValueError(f"events_per_step must be positive, got {events_per_step}")
    if not (0.0 <= p_fail <= 1.0 and 0.0 <= p_capacity <= 1.0):
        raise ValueError(
            f"p_fail and p_capacity must lie in [0, 1], got {p_fail} and {p_capacity}"
        )
    if p_fail + p_capacity > 1.0:
        raise ValueError(
            f"p_fail + p_capacity must be at most 1, got {p_fail + p_capacity}"
        )
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    tree = instance.tree
    clients = [c for c in tree.clients]
    W = instance.capacity
    down = set(failed)
    candidates = [
        v
        for v in range(1, len(tree))
        if fail_leaves or tree.is_internal(v)
    ]
    trace: List[List[ChangeEvent]] = []
    levels = {c: tree.requests(c) for c in clients}
    for _ in range(steps):
        batch: List[ChangeEvent] = []
        for _ in range(events_per_step):
            roll = rng.random()
            if roll < p_fail:
                # A failure draw with no candidates left degrades to a
                # demand event — never to another event kind, which
                # would skew runs configured without that kind.
                alive = [v for v in candidates if v not in down]
                if alive:
                    node = int(alive[int(rng.integers(len(alive)))])
                    down.add(node)
                    batch.append(FailureEvent(node))
                    continue
            elif roll < p_fail + p_capacity:
                W = int(max(1, rng.integers(max(1, W // 2), 2 * W + 1)))
                batch.append(CapacityEvent(W))
                continue
            c = int(clients[int(rng.integers(len(clients)))])
            mean = max(1.0, float(levels[c]))
            level = int(min(W, rng.poisson(mean)))
            levels[c] = level
            batch.append(DemandEvent(c, level))
        trace.append(batch)
    return trace


def describe_events(events: Sequence[ChangeEvent]) -> str:
    """Compact one-line rendering of an event batch."""
    return ", ".join(e.describe() for e in events)


# -- wire codec ---------------------------------------------------------
# One JSON shape per event kind, shared by the HTTP dynamic endpoints
# and the storage layer's WAL records, so a persisted event replays
# byte-identically to the live one.

def event_to_wire(event: ChangeEvent) -> dict:
    """Plain-JSON representation of one change event."""
    if isinstance(event, DemandEvent):
        return {"kind": "demand", "client": event.client, "requests": event.requests}
    if isinstance(event, FailureEvent):
        return {"kind": "fail", "node": event.node}
    if isinstance(event, CapacityEvent):
        return {"kind": "capacity", "capacity": event.capacity}
    raise InvalidInstanceError(f"unknown event type {type(event).__name__}")


def event_from_wire(data: dict) -> ChangeEvent:
    """Inverse of :func:`event_to_wire`.

    Raises
    ------
    InvalidInstanceError
        For an unknown ``kind`` tag or missing/non-integer fields.
        Topology-level validation (does the client exist? is the level
        non-negative?) stays in :func:`apply_event`, which sees the
        instance.
    """
    if not isinstance(data, dict):
        raise InvalidInstanceError(
            f"event must be a JSON object, got {type(data).__name__}"
        )
    kind = data.get("kind")
    try:
        if kind == "demand":
            return DemandEvent(int(data["client"]), int(data["requests"]))
        if kind == "fail":
            return FailureEvent(int(data["node"]))
        if kind == "capacity":
            return CapacityEvent(int(data["capacity"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInstanceError(
            f"malformed {kind!r} event: {type(exc).__name__}: {exc}"
        ) from None
    raise InvalidInstanceError(f"unknown event kind {kind!r}")
