"""The paper's future-work direction: pushing servers toward the root.

Section 5 conjectures a 3/2-approximation for Single-NoD-Bin exists and
suggests "to push servers towards the root of the tree, whenever
possible" instead of a one-pass greedy.  This module implements that
direction as composable pieces so the benchmark harness can measure how
far it gets:

* :func:`single_nod_bestfit` — Algorithm 2 with the *packing rule*
  swapped: at an overflow node the replica is packed best-fit-decreasing
  (largest entries first, maximising the packed volume) instead of the
  paper's smallest-first rule.  An ablation knob: the paper's choice of
  smallest-first is what its |R1|=|R2| pairing argument needs, but it
  deliberately wastes capacity (Fig. 4!), so comparing the two isolates
  the cost of proof-friendliness.
* :func:`single_push` — ``single_nod`` followed by the local-search
  root-pushing pass (:func:`~repro.algorithms.local_search.improve_single`),
  i.e. the paper's sketched recipe.  Benchmark E11 measures its observed
  ratio against exact optima on Single-NoD-Bin instances and checks the
  conjectured 3/2 envelope empirically.

Both return checker-valid placements; neither carries a proven ratio —
they are measured, not claimed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.errors import InfeasibleInstanceError, PolicyError
from ..core.instance import ProblemInstance
from ..core.placement import Placement
from ..core.policies import Policy
from ..runner.registry import register_solver
from .local_search import improve_single
from .single_nod import single_nod

__all__ = ["single_nod_bestfit", "single_push"]


@dataclass
class _Entry:
    node: int
    demand: int
    bundle: List[Tuple[int, int]] = field(default_factory=list)


@register_solver(
    "single-nod-bestfit",
    policy=Policy.SINGLE,
    needs_nod=True,
    description="Algorithm 2 with best-fit-decreasing overflow packing",
)
def single_nod_bestfit(instance: ProblemInstance) -> Placement:
    """Algorithm 2 with best-fit-decreasing packing at overflow nodes.

    Same control flow as :func:`~repro.algorithms.single_nod` —
    aggregation (Property 1), entry re-parenting, root fallback — but an
    overflow replica greedily absorbs the largest entries that still
    fit, and no companion replica (the paper's ``jmin``) opens: every
    entry the node cannot take is handed to its parent, and at the root
    each gets its own replica.
    """
    if instance.has_distance_constraint:
        raise PolicyError(
            "single_nod_bestfit only solves the NoD variants"
        )
    tree = instance.tree
    W = instance.capacity
    if tree.max_request > W:
        raise InfeasibleInstanceError(
            f"a client demands {tree.max_request} > W={W}"
        )

    replicas: List[int] = []
    assignments: Dict[Tuple[int, int], int] = {}

    def open_replica(at: int, entries: List[_Entry]) -> None:
        replicas.append(at)
        for e in entries:
            for client, amount in e.bundle:
                assignments[(client, at)] = (
                    assignments.get((client, at), 0) + amount
                )

    n = len(tree)
    root = tree.root
    inbox: List[List[_Entry]] = [[] for _ in range(n)]
    aggregate: List[_Entry] = [None] * n  # type: ignore[list-item]

    for j in tree.postorder():
        if tree.is_leaf(j):
            r = tree.requests(j)
            if j == root:
                if r > 0:
                    open_replica(j, [_Entry(j, r, [(j, r)])])
                continue
            aggregate[j] = _Entry(j, r, [(j, r)]) if r > 0 else None
            continue

        entries: List[_Entry] = list(inbox[j])
        for jp in tree.children(j):
            agg = aggregate[jp]
            if agg is not None and agg.demand > 0:
                entries.append(agg)
        total = sum(e.demand for e in entries)

        if total > W:
            # Best-fit-decreasing: largest first while it fits.
            entries.sort(key=lambda e: -e.demand)
            packed: List[_Entry] = []
            leftovers: List[_Entry] = []
            acc = 0
            for e in entries:
                if acc + e.demand <= W:
                    packed.append(e)
                    acc += e.demand
                else:
                    leftovers.append(e)
            open_replica(j, packed)
            if j != root:
                inbox[tree.parent(j)].extend(leftovers)
            else:
                for e in leftovers:
                    open_replica(e.node, [e])
            aggregate[j] = None
        else:
            if j == root:
                if total > 0:
                    merged = _Entry(j, total, [])
                    for e in entries:
                        merged.bundle.extend(e.bundle)
                    open_replica(root, [merged])
            elif total > 0:
                merged = _Entry(j, total, [])
                for e in entries:
                    merged.bundle.extend(e.bundle)
                aggregate[j] = merged
            else:
                aggregate[j] = None

    return Placement(replicas, assignments)


@register_solver(
    "single-push",
    policy=Policy.SINGLE,
    needs_nod=True,
    stats_kwarg="stats",
    description="single-nod + close/merge local search (measured 3/2)",
)
def single_push(
    instance: ProblemInstance, stats: Optional[Dict[str, int]] = None
) -> Placement:
    """The paper's sketched 3/2 direction: greedy pass + root pushing.

    Runs :func:`single_nod`, then the close/merge local search, which
    relocates mergeable replicas toward common ancestors.  Measured (not
    proven) to stay within 3/2 of the optimum on the E11 sweep.
    """
    return improve_single(instance, single_nod(instance), stats=stats)
