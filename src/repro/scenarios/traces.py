"""Correlated failure-storm event traces for the dynamic engine.

:func:`repro.dynamic.random_event_trace` draws *independent* events;
real outages are correlated — a rack loses power and every machine
under it goes dark at once.  :func:`failure_storm_trace` models that:
each storm picks a pivot internal node and fails it **together with
internal nodes of its subtree** in a single batch, so the re-placement
engine sees a whole region of the tree lose hosting capability between
two repairs.  Storms are separated by calm phases of flash-crowd demand
jitter (random clients spiking to ``W`` and cooling back down), which
keeps the standing placement under pressure while the failed set grows.

Traces are deterministic given their seed and are consumed by the
conformance harness's incremental-vs-scratch invariant
(:func:`repro.scenarios.invariants.check_incremental_parity`) and are
directly usable as an event trace of :func:`repro.replay.run_replay`.
"""

from __future__ import annotations

from typing import List, Set

import numpy as np

from ..core.instance import ProblemInstance
from ..dynamic.events import ChangeEvent, DemandEvent, FailureEvent

__all__ = ["failure_storm_trace"]


def failure_storm_trace(
    instance: ProblemInstance,
    *,
    storms: int = 3,
    storm_size: int = 2,
    calm_steps: int = 2,
    seed: int = 0,
) -> List[List[ChangeEvent]]:
    """A seeded trace of correlated failure storms with calm jitter between.

    Parameters
    ----------
    instance:
        The snapshot the trace replays against (topology source only).
    storms:
        Number of storm batches.  Each fails a pivot internal node plus
        up to ``storm_size - 1`` internal nodes of its subtree, all in
        one batch.
    storm_size:
        Maximum correlated failures per storm.
    calm_steps:
        Demand-jitter batches between storms: one random client spikes
        to ``W`` or cools to 1 per batch.
    seed:
        Trace randomness; equal seeds give equal traces.

    Returns
    -------
    A list of event batches suitable for
    :meth:`repro.dynamic.DynamicPlacement.apply` or the ``trace``
    argument of :func:`repro.replay.run_replay`.  The trace never
    fails the root (the origin server always survives) and never fails
    the same node twice.
    """
    if storms < 1:
        raise ValueError("storms must be positive")
    if storm_size < 1:
        raise ValueError("storm_size must be positive")
    rng = np.random.default_rng(seed)
    tree = instance.tree
    W = instance.capacity
    clients = list(tree.clients)
    down: Set[int] = set()
    trace: List[List[ChangeEvent]] = []

    def jitter_batch() -> List[ChangeEvent]:
        c = int(clients[int(rng.integers(len(clients)))])
        level = W if rng.random() < 0.5 else 1
        return [DemandEvent(c, level)]

    for _ in range(storms):
        alive = [
            v for v in tree.internal_nodes if v != tree.root and v not in down
        ]
        if alive:
            pivot = int(alive[int(rng.integers(len(alive)))])
            storm = [pivot]
            region = [
                v
                for v in tree.subtree(pivot)
                if v != pivot and tree.is_internal(v) and v not in down
            ]
            extra = min(storm_size - 1, len(region))
            if extra > 0:
                picks = rng.choice(len(region), size=extra, replace=False)
                storm.extend(int(region[int(i)]) for i in picks)
            down.update(storm)
            trace.append([FailureEvent(v) for v in storm])
        else:
            # Every internal node is already down: degrade to jitter so
            # the trace keeps its length (and the engine keeps working).
            trace.append(jitter_batch())
        for _ in range(calm_steps):
            trace.append(jitter_batch())
    return trace
