"""Lower bounds on the optimal number of replicas.

These bounds are used by the branch-and-bound exact solver
(:mod:`repro.algorithms.exact`) for pruning, and by the analysis layer to
sandwich solutions when instances are too large for the exact solver.

Three bounds are provided:

* :func:`volume_lower_bound` — ``⌈W_tot / W⌉``: every server processes at
  most ``W`` requests.
* :func:`subtree_lower_bound` — a recursive bound exploiting the tree and
  the distance constraint: requests whose *entire* eligible server set
  lies inside ``subtree(v)`` must be served by servers inside
  ``subtree(v)``; disjoint children subtrees add up.
* :func:`big_item_lower_bound` (Single only) — clients with
  ``r_i > W/2`` can never share a server pairwise, so they need one
  server each.

:func:`lower_bound` combines them.
"""

from __future__ import annotations

import math
from typing import Dict, List

from .instance import ProblemInstance
from .policies import Policy

__all__ = [
    "volume_lower_bound",
    "big_item_lower_bound",
    "subtree_lower_bound",
    "lower_bound",
]


def volume_lower_bound(instance: ProblemInstance) -> int:
    """``⌈Σ_i r_i / W⌉`` — the pure capacity bound."""
    total = instance.tree.total_requests
    if total == 0:
        return 0
    return -(-total // instance.capacity)


def big_item_lower_bound(instance: ProblemInstance) -> int:
    """Number of clients with ``r_i > W/2`` (Single policy only).

    Two such clients can never share a server, so any Single placement
    needs at least one server per big client.  Under the Multiple policy
    requests can be split, so the bound degenerates to the volume bound
    and this function returns 0 to avoid overstating.
    """
    if instance.policy is not Policy.SINGLE:
        return 0
    t = instance.tree
    half = instance.capacity / 2
    return sum(1 for c in t.clients if t.requests(c) > half)


def _highest_eligible(instance: ProblemInstance) -> Dict[int, int]:
    """For each client with requests, the highest ancestor allowed to
    serve it (the last node on its root path within ``dmax``)."""
    t = instance.tree
    out: Dict[int, int] = {}
    for c in t.clients:
        if t.requests(c) == 0:
            continue
        eligible = t.eligible_servers(c, instance.dmax)
        out[c] = eligible[-1][0]
    return out


def subtree_lower_bound(instance: ProblemInstance) -> int:
    """Recursive subtree bound.

    Let ``must(v)`` be the total demand of clients in ``subtree(v)`` whose
    highest eligible server lies in ``subtree(v)`` — these requests cannot
    escape the subtree, so it must contain at least ``⌈must(v)/W⌉``
    servers (and, under Single, at least one per trapped big client).
    Children subtrees are disjoint, hence::

        LB(v) = max( ⌈must(v)/W⌉, big(v), Σ_{c ∈ children(v)} LB(c) )

    and ``LB(root)`` is a valid global lower bound (at the root,
    ``must(root) = W_tot``).
    """
    t = instance.tree
    W = instance.capacity
    highest = _highest_eligible(instance)

    # For each node v: demand trapped at exactly v (clients whose highest
    # eligible ancestor is v).
    trapped_here: List[int] = [0] * len(t)
    big_here: List[int] = [0] * len(t)
    half = W / 2
    single = instance.policy is Policy.SINGLE
    for c, h in highest.items():
        trapped_here[h] += t.requests(c)
        if single and t.requests(c) > half:
            big_here[h] += 1

    lb: List[int] = [0] * len(t)
    must: List[int] = [0] * len(t)
    big: List[int] = [0] * len(t)
    for v in t.postorder():
        m = trapped_here[v]
        b = big_here[v]
        child_sum = 0
        for u in t.children(v):
            m += must[u]
            b += big[u]
            child_sum += lb[u]
        must[v] = m
        big[v] = b
        vol = -(-m // W) if m else 0
        lb[v] = max(vol, b if single else 0, child_sum)
    return lb[t.root]


def lower_bound(instance: ProblemInstance) -> int:
    """Best available lower bound on the optimal replica count.

    Without a distance constraint every client may be served at the
    root, so nothing is trapped below it and the subtree bound reduces
    to the volume and big-item bounds: the root-path walk is skipped.
    """
    bound = max(volume_lower_bound(instance), big_item_lower_bound(instance))
    if not instance.has_distance_constraint:
        return bound
    return max(bound, subtree_lower_bound(instance))
