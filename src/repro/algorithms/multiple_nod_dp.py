"""Exact dynamic program for Multiple-NoD, on the flat-array substrate.

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

* The answer is ``g_root(0)``; placements are reconstructed by
  backtracking the argmins of every convolution and absorb choice.

Data layout and the monotone fast path
--------------------------------------
The hot loop runs on the :class:`~repro.core.arrays.FlatTree` compiled
from the instance's tree: post-order positions replace the object
traversal, so the bottom-up pass is ``for p in range(n)`` over
contiguous ``demand`` / ``depth`` / ``subtree_demand`` arrays with
children reached through ``first_child`` / ``next_sibling`` chains.

Every DP table is a **non-increasing step function** (forwarding more
can never require more local replicas; see the invariants note below),
which the convolution and absorb kernels exploit:

* :func:`_min_plus_mono` decomposes the child table into its constant
  *levels* and convolves per level — ``O(L · |pool|)`` where ``L`` is
  the number of distinct replica counts, instead of the quadratic
  ``O(|g_child| · |pool|)`` of the general kernel;
* the absorb step reads the window minimum straight off the pool's
  level structure — ``min`` over ``(u, u+W]`` of a non-increasing
  table is its rightmost entry — in O(1) amortised per ``u`` instead
  of O(W).

Invariants
----------
The flat path is **bit-identical** to the original object-graph
formulation (preserved as
:func:`repro.algorithms.reference.multiple_nod_dp_reference`): both
kernels break argmin ties toward the smallest split / absorb index, so
every table, every argmin and hence the reconstructed placement are
exactly equal — property-tested in ``tests/test_arrays.py`` and
benchmarked by ``repro bench`` (``docs/performance.md``).

Complexity ``O(|T| · D · L)`` with total demand ``D`` and replica-count
diversity ``L ≤ |R_opt|`` — pseudo-polynomial, exact, and fast for the
demand scales of the benchmark suite.  (The paper's framework treats
request counts as integers, which this DP requires.)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.arrays import flat_tree
from ..core.errors import PolicyError
from ..core.instance import ProblemInstance
from ..core.kernels import (
    absorb_step,
    leaf_table,
    levels,
    min_plus,
    min_plus_mono,
)
from ..core.placement import Placement
from ..core.policies import Policy
from ..runner.registry import register_solver

__all__ = ["multiple_nod_dp"]

_INF = float("inf")

# The step-function kernels live in :mod:`repro.core.kernels` (pure
# Python + NumPy backends, selected by table size).  The underscore aliases
# keep this module the historical import site for them.
_levels = levels
_min_plus = min_plus
_min_plus_mono = min_plus_mono
_absorb_step = absorb_step


def _fold_node_tables(
    g: List[Optional[List[float]]],
    first_child: List[int],
    next_sibling: List[int],
    p: int,
    W: int,
    u_cap: int,
    pool_cap: int,
) -> Tuple[
    List[float],
    List[Tuple[int, List[int]]],
    List[int],
]:
    """One internal-node DP fold on the flat substrate.

    Convolves the children's tables into the pool with the monotone
    kernel, then applies :func:`repro.core.kernels.absorb_step`.

    Parameters
    ----------
    g:
        Per-post-position DP tables (children of ``p`` already folded).
    first_child, next_sibling:
        The FlatTree child chains.
    p:
        Post position of the internal node being folded.
    W:
        Server capacity.
    u_cap, pool_cap:
        Forward-amount caps for the node table and the children pool.

    Returns
    -------
    ``(table, args, chose)`` — the node's table, the per-child
    convolution argmins (in child order, keyed by child post position)
    and the chosen absorb source per ``u`` (``-1`` = no replica) —
    all bit-identical to the object-graph formulation.
    """
    pool: List[float] = [0.0]
    args: List[Tuple[int, List[int]]] = []
    c = first_child[p]
    while c >= 0:
        pool, arg = min_plus_mono(g[c], pool, pool_cap)
        args.append((c, arg))
        c = next_sibling[c]
    table, chose = absorb_step(pool, u_cap, W)
    return table, args, chose


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
    """
    if instance.has_distance_constraint:
        raise PolicyError(
            "multiple_nod_dp solves the NoD variants only; use "
            "exact_multiple for distance-constrained instances"
        )
    tree = instance.tree
    W = instance.capacity
    ft = flat_tree(tree)
    n = ft.n
    root = ft.root
    depth = ft.depth
    demand = ft.demand
    sdem = ft.subtree_demand
    first_child = ft.first_child
    next_sibling = ft.next_sibling

    # g[p]: list over u of minimal replicas; bookkeeping for rebuild.
    g: List[Optional[List[float]]] = [None] * n
    conv_args: List[Optional[List[Tuple[int, List[int]]]]] = [None] * n
    absorb_from: List[Optional[List[int]]] = [None] * n

    for p in range(n):
        cap_fwd = W * depth[p]
        u_cap = sdem[p] if sdem[p] < cap_fwd else cap_fwd
        if first_child[p] < 0:
            # Serving r - u locally needs one replica of capacity W.
            g[p] = leaf_table(demand[p], u_cap, W)
            continue
        pool_cap = min(sdem[p], W * (depth[p] + 1))
        table, args, chose = _fold_node_tables(
            g, first_child, next_sibling, p, W, u_cap, pool_cap
        )
        g[p] = table
        conv_args[p] = args
        absorb_from[p] = chose

    g_root = g[root]
    if not g_root or g_root[0] == _INF:  # pragma: no cover - defensive
        raise PolicyError("DP failed to cover the demand")

    # ------------------------------------------------------------------
    # Reconstruction: walk the argmins top-down over post positions,
    # emitting original node ids for the replica set.
    # ------------------------------------------------------------------
    post_to_orig = ft.post_to_orig
    replicas: List[int] = []
    forward = [0] * n
    stack = [root]
    while stack:
        p = stack.pop()
        u = forward[p]
        if first_child[p] < 0:
            if u < demand[p]:
                replicas.append(post_to_orig[p])
            continue
        U = u
        src = absorb_from[p][u]
        if src >= 0:
            replicas.append(post_to_orig[p])
            U = src
        # Split U across children by unwinding the convolutions.
        remaining = U
        for child, arg in reversed(conv_args[p]):
            take = arg[remaining]
            assert take >= 0
            forward[child] = take
            remaining -= take
            stack.append(child)
        # ``remaining`` is the initial pool's zero element.
        assert remaining == 0

    # Client-level routing over the chosen replica set: guaranteed
    # feasible by construction; resolved with the max-flow oracle so
    # the returned placement carries full assignments.
    from .feasibility import multiple_assignment

    assign = multiple_assignment(instance, replicas)
    if assign is None:  # pragma: no cover - contradicts DP feasibility
        raise PolicyError("DP replica set failed flow verification")
    used = set(replicas)
    for (c, s) in assign:
        used.add(s)
    assignments: Dict[Tuple[int, int], int] = dict(assign)
    return Placement(used, assignments)
