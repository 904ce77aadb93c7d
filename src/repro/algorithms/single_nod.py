"""Algorithm 2 of the paper: ``single-nod``, on the flat-array substrate.

A greedy bottom-up 2-approximation for **Single-NoD** — the Single
policy with no distance constraint (Theorem 4).

The algorithm refines ``single-gen`` by exploiting the absence of
distances.  It works on *entries*: a subtree whose total pending demand
fits a server is aggregated into a single entry ``(node, demand)``
(Property 1 of the paper) and treated like a client higher up.  At a node
``j`` whose entries sum to more than ``W``:

* a replica is opened at ``j`` and greedily packed with the *smallest*
  entries (whole entries — Single policy — sorted non-decreasing);
* the first entry that does not fit (``jmin`` in the paper) gets its own
  replica, placed at the entry's node;
* surviving entries are re-parented: they become entries of
  ``parent(j)`` and may be packed there or higher.

Leftover entries reaching the root either fit one last root replica or
each get their own replica (the paper's set ``R₃``).

The proof pairs each packed replica with its ``jmin`` replica
(``|R₁| = |R₂|``) and shows any solution needs ``|R₁| + |R₃|`` replicas,
hence the factor 2, which is tight (Fig. 4, reproduced in
:func:`repro.instances.tight.single_nod_tight_instance`).

Data layout
-----------
Algorithm 2 is a fold over the :class:`~repro.core.arrays.FlatTree`
post-order (:func:`fold`): ``for p in positions`` with ``demand`` array
lookups and ``first_child`` / ``next_sibling`` child chains.  Each
position's result is its *export* — what its subtree pushes to its
parent: the aggregate entry, the leftover entries of a packing, or
nothing — and its *contribution*, the replicas opened while folding
it.  :func:`single_nod` folds every position and sums the
contributions into the placement;
:class:`repro.dynamic.IncrementalSingleNod` runs the same :func:`fold`
over the root paths of changed positions only, and retracts and re-adds
just their contributions.

Invariants
----------
Bit-identical to the original object-graph formulation (preserved as
:func:`repro.algorithms.reference.single_nod_reference`): entry lists
are assembled in the original's inbox order — children's leftovers in
*reversed* child order, then aggregates in child order — and the
packing sort is stable, so every tie breaks the same way and the
returned placement is exactly equal.  Property-tested in
``tests/test_arrays.py``.

Complexity: ``O((Δ log Δ + |C|) · |T|)`` — we sort entry lists per node;
leftover entries are handed up by reference, so bookkeeping stays
linear in the number of client-to-server handoffs.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..core.arrays import FlatTree, flat_tree
from ..core.errors import InfeasibleInstanceError, PolicyError
from ..core.instance import ProblemInstance
from ..core.kernels import prefix_fit, stable_argsort
from ..core.placement import Placement
from ..core.policies import Policy
from ..runner.registry import register_solver

__all__ = ["Contribution", "Export", "add", "fold", "single_nod"]

#: ``(client, amount)`` pairs served together.
Bundle = Tuple[Tuple[int, int], ...]
#: An entry: ``(node, demand, bundle)`` — a pending group of whole
#: clients rooted at ``node`` (an original tree id).  ``demand ≤ W``
#: always holds.  An entry is served atomically, so the Single policy
#: is respected by construction.
Entry = Tuple[int, int, Bundle]
#: What subtree(p) pushes to parent(p): ``("agg", (entry,))`` for an
#: aggregated subtree, ``("left", entries)`` for the leftovers of a
#: packing at ``p``, or ``None``.
Export = Optional[Tuple[str, Tuple[Entry, ...]]]
#: The replicas opened while folding a node: ``((site, bundle), ...)``.
Contribution = Tuple[Tuple[int, Bundle], ...]


def fold(
    ft: FlatTree,
    W: int,
    exports: List[Export],
    contributions: List[Contribution],
    positions: Iterable[int],
) -> None:
    """Fold the nodes at ``positions`` into ``exports`` and
    ``contributions``, bottom-up.

    Parameters
    ----------
    ft:
        The instance tree's flat layout; no demand exceeds ``W``.
    W:
        Server capacity.
    exports, contributions:
        One entry per post position; every child of a folded node must
        already hold its export (an earlier position, or a reused one).
        Entries and sites carry *original* node ids.
    positions:
        Ascending post positions to fold.
    """
    post_to_orig = ft.post_to_orig
    demand = ft.demand
    first_child = ft.first_child
    next_sibling = ft.next_sibling
    root = ft.root
    for p in positions:
        j = post_to_orig[p]
        c = first_child[p]
        if c < 0:
            r = demand[p]
            if not r:
                exports[p], contributions[p] = None, ()
            elif p == root:
                exports[p], contributions[p] = None, ((j, ((j, r),)),)
            else:
                exports[p], contributions[p] = ("agg", ((j, r, ((j, r),)),)), ()
            continue

        # The original's inbox order: leftovers child by child in
        # *reversed* child order, then aggregates in child order.
        children: List[int] = []
        while c >= 0:
            children.append(c)
            c = next_sibling[c]
        entries: List[Entry] = []
        for c in reversed(children):
            export = exports[c]
            if export is not None and export[0] == "left":
                entries.extend(export[1])
        for c in children:
            export = exports[c]
            if export is not None and export[0] == "agg":
                entries.extend(export[1])
        total = 0
        for e in entries:
            total += e[1]

        if total <= W:
            # Aggregate the whole subtree into one entry (Property 1).
            if not total:
                exports[p], contributions[p] = None, ()
            elif p == root:
                exports[p], contributions[p] = None, ((j, _bundle(entries)),)
            else:
                exports[p] = ("agg", ((j, total, _bundle(entries)),))
                contributions[p] = ()
            continue

        # Pack a replica at j with the smallest entries (stable sort:
        # insertion order breaks demand ties, as in the original).
        order = stable_argsort([e[1] for e in entries])
        entries = [entries[i] for i in order]
        k = prefix_fit([e[1] for e in entries], W)
        assert k < len(entries)  # total > W and demands ≤ W
        # The entry that burst the capacity gets its own replica at its
        # root node (the paper's jmin / R2 replica).
        overflow = entries[k]
        contribution = [(j, _bundle(entries[:k])), (overflow[0], overflow[2])]
        leftovers = tuple(entries[k + 1 :])
        if p == root:
            # Paper's R3: leftovers at the root each get a replica.
            contribution.extend((e[0], e[2]) for e in leftovers)
            exports[p] = None
        else:
            exports[p] = ("left", leftovers)
        contributions[p] = tuple(contribution)


def _bundle(entries: List[Entry]) -> Bundle:
    out: List[Tuple[int, int]] = []
    for e in entries:
        out.extend(e[2])
    return tuple(out)


def add(
    sites: Dict[int, int],
    amounts: Dict[Tuple[int, int], int],
    contributions: Iterable[Contribution],
) -> None:
    """Add the replicas of ``contributions`` to the placement maps:
    replica site -> number of contributions opening it,
    ``(client, site) -> amount``."""
    for contribution in contributions:
        for site, bundle in contribution:
            sites[site] = sites.get(site, 0) + 1
            for client, amount in bundle:
                key = (client, site)
                amounts[key] = amounts.get(key, 0) + amount


@register_solver(
    "single-nod",
    policy=Policy.SINGLE,
    needs_nod=True,
    description="Algorithm 2: 2-approximation for Single-NoD",
)
def single_nod(instance: ProblemInstance) -> Placement:
    """Run Algorithm 2 on ``instance`` and return a full placement.

    Parameters
    ----------
    instance:
        A Single-policy instance without distance constraint (the *NoD*
        variants) — the entry re-parenting step may move requests
        arbitrarily far up the tree.

    Returns
    -------
    Placement
        A checker-valid placement with ``|R| ≤ 2·|R_opt|``;
        bit-identical to the object-graph baseline
        :func:`repro.algorithms.reference.single_nod_reference`.

    Raises
    ------
    PolicyError
        If the instance carries a distance constraint.
    InfeasibleInstanceError
        If some client demands more than ``W`` (no Single placement
        exists at all).
    """
    if instance.has_distance_constraint:
        raise PolicyError(
            "single-nod only solves the NoD variants; use single_gen for "
            "instances with a distance constraint"
        )
    tree = instance.tree
    W = instance.capacity
    if tree.max_request > W:
        raise InfeasibleInstanceError(
            f"a client demands {tree.max_request} > W={W}; "
            "no Single placement exists"
        )
    ft = flat_tree(tree)
    exports: List[Export] = [None] * ft.n
    contributions: List[Contribution] = [()] * ft.n
    fold(ft, W, exports, contributions, range(ft.n))
    sites: Dict[int, int] = {}
    amounts: Dict[Tuple[int, int], int] = {}
    add(sites, amounts, contributions)
    return Placement._trusted(frozenset(sites), amounts)
