"""Greedy repair of a placement after replica failures.

The paper's Section 1 motivates smart placement partly through fault
tolerance.  This module quantifies that: given a valid placement, kill
replicas and *repair* the placement by re-routing the orphaned demand —
to surviving replicas with spare capacity where eligibility allows,
opening fresh replicas otherwise.  :class:`~repro.dynamic.DynamicPlacement`
uses :func:`repair_placement` for its ``incremental+repair`` and
full-resolve modes whenever a solver put a replica on a failed host.

Repair strategy (greedy, checker-validated downstream):

1. orphaned demand is collected per client (whole clients under Single,
   per-assignment amounts under Multiple);
2. clients are processed most-constrained-first (fewest eligible
   surviving hosts, then largest orphaned amount);
3. each orphan goes to the deepest eligible *open* replica with room
   (deepest = closest, preserving distance slack); under Multiple it
   may split across several;
4. remaining demand opens a new replica at the deepest eligible
   non-failed node, client itself included.

Failed nodes never host again (they model crashed machines).  Repair
returns ``None`` when some orphan cannot be served — e.g. a pinned
client whose only eligible host was the failed node itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..core.instance import ProblemInstance
from ..core.placement import Placement
from ..core.policies import Policy

__all__ = ["RepairResult", "repair_placement", "failure_study"]


@dataclass(frozen=True)
class RepairResult:
    """Outcome of repairing a placement after failures."""

    placement: Placement
    failed: Tuple[int, ...]
    moved_requests: int
    new_replicas: Tuple[int, ...]

    @property
    def replica_overhead(self) -> int:
        """Extra replicas the repair opened."""
        return len(self.new_replicas)


def repair_placement(
    instance: ProblemInstance,
    placement: Placement,
    failed: Iterable[int],
) -> Optional[RepairResult]:
    """Repair ``placement`` after the ``failed`` replicas crash.

    Returns ``None`` if some orphaned demand cannot be re-hosted (the
    instance is unserviceable without the failed machines).
    """
    tree = instance.tree
    W = instance.capacity
    failed_set: Set[int] = {int(f) for f in failed}
    single = instance.policy is Policy.SINGLE

    # Surviving assignment and loads.
    assignments: Dict[Tuple[int, int], int] = {}
    load: Dict[int, int] = {
        r: 0 for r in placement.replicas if r not in failed_set
    }
    orphans: Dict[int, int] = {}
    for a in placement.iter_assignments():
        if a.server in failed_set:
            orphans[a.client] = orphans.get(a.client, 0) + a.amount
        else:
            assignments[(a.client, a.server)] = a.amount
            load[a.server] = load.get(a.server, 0) + a.amount

    if single:
        # A Single client must stay whole: pull its surviving portion
        # (there is none by policy, but be defensive) into the orphan.
        for c in list(orphans):
            extra = [
                (cc, s) for (cc, s) in assignments if cc == c
            ]
            for key in extra:
                orphans[c] += assignments.pop(key)
                load[key[1]] -= placement.assignments[key]

    moved = sum(orphans.values())
    new_replicas: List[int] = []

    def eligible_hosts(c: int) -> List[int]:
        """Non-failed candidate hosts, deepest (closest) first."""
        return [
            s
            for s, _d in tree.eligible_servers(c, instance.dmax)
            if s not in failed_set
        ]

    order = sorted(
        orphans,
        key=lambda c: (len(eligible_hosts(c)), -orphans[c]),
    )
    for c in order:
        need = orphans[c]
        hosts = eligible_hosts(c)
        if single:
            placed = False
            # Deepest open replica with room, else open the deepest
            # candidate that fits the whole client.
            for s in hosts:
                if s in load and load[s] + need <= W:
                    load[s] += need
                    assignments[(c, s)] = assignments.get((c, s), 0) + need
                    placed = True
                    break
            if not placed:
                for s in hosts:
                    if s not in load and need <= W:
                        load[s] = need
                        new_replicas.append(s)
                        assignments[(c, s)] = need
                        placed = True
                        break
            if not placed:
                return None
        else:
            # Multiple: fill open replicas deepest-first, then open new
            # ones deepest-first.
            for opening in (False, True):
                for s in hosts:
                    if need == 0:
                        break
                    if (s in load) == opening:
                        continue
                    if opening:
                        load[s] = 0
                        new_replicas.append(s)
                    take = min(need, W - load[s])
                    if take > 0:
                        load[s] += take
                        assignments[(c, s)] = (
                            assignments.get((c, s), 0) + take
                        )
                        need -= take
                if need == 0:
                    break
            if need > 0:
                return None

    repaired = Placement(load.keys(), assignments)
    return RepairResult(
        repaired, tuple(sorted(failed_set)), moved, tuple(new_replicas)
    )


def failure_study(
    instance: ProblemInstance,
    placement: Placement,
    *,
    n_failures: int = 1,
    trials: int = 20,
    seed: int = 0,
) -> List[Optional[RepairResult]]:
    """Randomly fail ``n_failures`` replicas, ``trials`` times.

    Returns one :class:`RepairResult` (or ``None`` for unrepairable
    scenarios) per trial — feed the results to the analysis layer for
    overhead distributions.
    """
    rng = np.random.default_rng(seed)
    replicas = sorted(placement.replicas)
    if n_failures > len(replicas):
        raise ValueError(
            f"cannot fail {n_failures} of {len(replicas)} replicas"
        )
    out: List[Optional[RepairResult]] = []
    for _ in range(trials):
        failed = rng.choice(replicas, size=n_failures, replace=False)
        out.append(repair_placement(instance, placement, failed))
    return out
