"""Exact dynamic program for Multiple-NoD, on threshold rows.

The paper uses as known background (its reference [3], Benoit,
Rehn-Sonigo & Robert 2008) that **Multiple without distance
constraints is solvable in polynomial time**.  This module implements
that result as a bottom-up dynamic program, giving the library a third,
fully independent optimality oracle for Multiple-NoD next to the
branch-and-bound exact solver and Algorithm 3 — the three are
cross-validated in the tests and benchmark E13.

Formulation
-----------
For every node ``v`` let ``g_v(u)`` be the minimum number of replicas
inside ``subtree(v)`` such that exactly ``u`` requests of the subtree
are *forwarded* above ``v`` (to be served by proper ancestors).  Every
forwarded unit must land on one of ``v``'s proper ancestors, each of
capacity ``W``, so ``u`` is capped at ``W · depth(v)`` (node count
depth), besides the subtree demand itself.

* Leaf ``c`` with demand ``r``: serving ``r − u`` locally needs one
  replica of capacity ``W``, so ``g_c(r) = 0``, ``g_c(u) = 1`` for
  ``r − W ≤ u < r``, and ``∞`` below that.
* Internal ``v``: children pools combine by min-plus convolution
  (``h = g_{c1} ⊞ g_{c2} ⊞ …``, where ``h(U)`` is the cheapest way for
  the children to forward ``U`` up to ``v``); then ``v`` optionally
  hosts a replica absorbing ``a ≤ W`` of the incoming pool::

      g_v(u) = min( h(u),  1 + min_{u < U ≤ u + W} h(U) )

* The answer is ``g_root(0)``; placements are reconstructed top-down
  by recovering every convolution split and absorb choice.

Threshold rows
--------------
Every table is a non-increasing step function in small integers, so
the DP stores it as a threshold row ``(v0, T, length)`` with
``T[i] = min{u : g(u) ≤ v0 + i}`` (:mod:`repro.core.kernels`).  A row
is never longer than the dense table, and in practice far shorter —
at most 9 entries on the 9544-node mesh.  Folding a node is one
:func:`~repro.core.kernels.min_plus` per child, in
``O(len(T_child) · len(T_pool))``, then one
:func:`~repro.core.kernels.absorb`.  :func:`fold` keeps the pool row
before each child's convolution; reconstruction (:func:`place`) reads
the dense argmins back off those rows with the kernels' probes.

The fold runs on the :class:`~repro.core.arrays.FlatTree` compiled from
the instance's tree: post-order positions, so the bottom-up pass is
``for p in range(n)`` with children reached through ``first_child`` /
``next_sibling`` chains.  :class:`repro.dynamic.IncrementalNodDP` runs
the same :func:`fold` and :func:`place`, re-folding only nodes whose
subtree changed and forbidding failed hosts.

Reconstruction and routing
--------------------------
:func:`place` records what it reads off the folds in a
:class:`Reconstruction`: per post position, the amount forwarded into
it and its replica decision, plus the lowest-server-first routing of
the replica set (:class:`~repro.algorithms.feasibility.NodRoutes`:
the entries pending above each position and the clients served there).
Handed the last placement's memo and the positions whose fold changed,
it re-walks only subtrees whose fold or incoming amount changed and
re-routes only the root paths of positions whose demand or replica
flag changed — a sparse tick of the dynamic engine costs its dirty root
paths.  A cold solve is the same code over a fresh memo with every
position dirty.

Invariants
----------
The placements are **bit-identical** to the original object-graph
formulation (preserved as
:func:`repro.algorithms.reference.multiple_nod_dp_reference`): the
probes break argmin ties toward the smallest split / absorb index, as
the dense kernels do — property-tested in ``tests/test_arrays.py`` and
``tests/test_kernel_conformance.py`` and benchmarked by ``repro
bench`` (``docs/performance.md``).  The routing is the one
:func:`~repro.algorithms.feasibility.multiple_assignment` runs on a NoD
instance.  (The paper's framework treats request counts as integers,
which this DP requires.)
"""

from __future__ import annotations

from itertools import chain
from typing import FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.arrays import FlatTree, flat_tree
from ..core.errors import InfeasibleInstanceError, PolicyError
from ..core.instance import ProblemInstance
from ..core.kernels import (
    ZERO_ROW,
    Row,
    absorb,
    absorb_arg,
    conv_arg,
    leaf_row,
    min_plus,
    value_at,
)
from ..core.placement import Placement
from ..core.policies import Policy
from ..runner.registry import register_solver
from .feasibility import NodRoutes

__all__ = ["NodeFold", "Reconstruction", "fold", "place", "multiple_nod_dp"]

#: One node's fold: its row and, for an internal node, the pool row
#: before each child's convolution, keyed by the child's post position
#: (in child order), and the final pool.
NodeFold = Tuple[Row, Optional[List[Tuple[int, Row]]], Optional[Row]]


def fold(
    ft: FlatTree,
    W: int,
    folds: List[Optional[NodeFold]],
    positions: Iterable[int],
    failed: FrozenSet[int] = frozenset(),
) -> None:
    """Fold the nodes at ``positions`` into ``folds``, bottom-up.

    Parameters
    ----------
    ft:
        The instance tree's flat layout.
    W:
        Server capacity.
    folds:
        One entry per post position; every child of a folded node
        must already hold its fold (an earlier position, or a reused
        one).
    positions:
        Ascending post positions to fold.
    failed:
        Original ids of failed hosts: a failed leaf forwards its whole
        demand, a failed internal node keeps its pool.
    """
    post_to_orig = ft.post_to_orig
    subtree_demand = ft.subtree_demand
    depth = ft.depth
    demand = ft.demand
    first_child = ft.first_child
    next_sibling = ft.next_sibling
    for p in positions:
        sd = subtree_demand[p]
        cap_fwd = W * depth[p]
        u_cap = sd if sd < cap_fwd else cap_fwd
        can_host = post_to_orig[p] not in failed
        c = first_child[p]
        if c < 0:
            folds[p] = (leaf_row(demand[p], u_cap, W, can_host), None, None)
            continue
        pool_cap = cap_fwd + W
        if sd < pool_cap:
            pool_cap = sd
        pool = ZERO_ROW
        before: List[Tuple[int, Row]] = []
        while c >= 0:
            before.append((c, pool))
            pool = min_plus(folds[c][0], pool, pool_cap)
            c = next_sibling[c]
        folds[p] = (absorb(pool, u_cap, W, can_host), before, pool)


class Reconstruction:
    """What :func:`place` read off the folds, memoized per post position.

    Attributes
    ----------
    forward:
        ``forward[p]`` — the amount ``p`` forwards to its parent (the
        amount the walk hands into ``p`` from above).
    host:
        ``host[p]`` — 1 where the walk opened a replica.
    replicas:
        The original ids of those positions.
    routes:
        The routing of that replica set
        (:class:`~repro.algorithms.feasibility.NodRoutes`).

    A fresh memo describes nothing; :func:`place` with ``dirty=None``
    fills every position.
    """

    __slots__ = ("forward", "host", "replicas", "routes")

    def __init__(self, n: int) -> None:
        self.forward = [0] * n
        self.host = bytearray(n)
        self.replicas: Set[int] = set()
        self.routes = NodRoutes(n)


def place(
    instance: ProblemInstance,
    ft: FlatTree,
    folds: Sequence[NodeFold],
    failed: FrozenSet[int] = frozenset(),
    memo: Optional[Reconstruction] = None,
    dirty: Optional[Sequence[int]] = None,
) -> Placement:
    """The placement the folded DP describes.

    Walks the folds top-down from ``g_root(0)``: at each internal node
    the absorb probe decides the replica there (never on a ``failed``
    host), then the convolution probes split the pool amount across the
    children, last child first.  The replica set is routed
    lowest-server-first
    (:meth:`~repro.algorithms.feasibility.NodRoutes.route`).

    Parameters
    ----------
    memo:
        The :class:`Reconstruction` of the last placement over the same
        layout, updated in place; ``None`` starts a fresh one over
        every position.
    dirty:
        The positions whose fold changed since ``memo`` was filled
        (ancestor-closed, ascending), or ``None`` for every position.
        The walk skips a subtree whose fold did not change and whose
        incoming amount equals the memo's — in post order, it jumps to
        ``subtree_begin[p] - 1`` — and the routing re-routes the root
        paths of ``dirty`` and of every position whose replica flag
        flipped.  With ``dirty=None`` this is the cold reconstruction.

    Raises
    ------
    InfeasibleInstanceError
        If the root row does not reach ``u = 0``: no placement (off
        the ``failed`` hosts) covers the demand.
    """
    root = ft.root
    if value_at(folds[root][0], 0) is None:
        raise InfeasibleInstanceError(
            "demand cannot be covered"
            + (" without the failed hosts" if failed else "")
        )
    n = ft.n
    if memo is None:
        memo, dirty = Reconstruction(n), None
    W = instance.capacity
    post_to_orig = ft.post_to_orig
    demand = ft.demand
    subtree_begin = ft.subtree_begin
    forward = memo.forward
    host = memo.host
    replicas = memo.replicas
    if dirty is None:
        stale = bytearray(b"\x01") * n
    else:
        stale = bytearray(n)
        for p in dirty:
            stale[p] = 1
    flipped: List[int] = []
    # Descending post positions visit every parent before its children.
    p = root
    while p >= 0:
        if not stale[p]:
            p = subtree_begin[p] - 1
            continue
        u = forward[p]
        _row, before, pool = folds[p]
        h = 0
        if before is None:
            if u < demand[p]:
                h = 1
        else:
            if post_to_orig[p] not in failed:
                src = absorb_arg(pool, u, W)
                if src >= 0:
                    h = 1
                    u = src
            value = value_at(pool, u)
            for k in range(len(before) - 1, -1, -1):
                child, prior = before[k]
                j = conv_arg(folds[child][0], prior, u, value)
                assert j >= 0
                if j != forward[child]:
                    forward[child] = j
                    stale[child] = 1
                u -= j
                value = value_at(prior, u)
            # ``u`` is now the initial pool's zero element.
            assert u == 0
        if h != host[p]:
            host[p] = h
            flipped.append(p)
            if h:
                replicas.add(post_to_orig[p])
            else:
                replicas.discard(post_to_orig[p])
        p -= 1

    positions = range(n) if dirty is None else ft.root_paths(chain(dirty, flipped))
    routes = memo.routes
    if not routes.route(ft, host, W, positions):  # pragma: no cover - contradicts DP feasibility
        raise PolicyError("DP replica set failed flow verification")
    return Placement._trusted(frozenset(replicas), routes.assignments.copy())


@register_solver(
    "multiple-nod-dp",
    policy=Policy.MULTIPLE,
    needs_nod=True,
    exact=True,
    description="Knapsack DP: optimal Multiple-NoD on any arity",
)
def multiple_nod_dp(instance: ProblemInstance) -> Placement:
    """Optimal Multiple-NoD placement by dynamic programming.

    Parameters
    ----------
    instance:
        A Multiple-policy instance without distance constraint.

    Returns
    -------
    Placement
        An optimal placement; bit-identical to the object-graph
        baseline :func:`repro.algorithms.reference.multiple_nod_dp_reference`.

    Raises
    ------
    PolicyError
        On instances with a distance constraint (the DP state would
        need per-distance profiles; use the branch-and-bound exact
        solver there).
    InfeasibleInstanceError
        If no placement covers the demand (a client's demand exceeds
        the capacity of its whole root path).
    """
    if instance.has_distance_constraint:
        raise PolicyError(
            "multiple_nod_dp solves the NoD variants only; use "
            "exact_multiple for distance-constrained instances"
        )
    ft = flat_tree(instance.tree)
    folds: List[Optional[NodeFold]] = [None] * ft.n
    fold(ft, instance.capacity, folds, range(ft.n))
    return place(instance, ft, folds)
