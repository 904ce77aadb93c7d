"""Feasibility oracles for a *fixed* replica set.

Given an instance and a candidate replica set ``R``, decide whether all
client demands can be assigned to servers of ``R`` under the model
constraints, and if so produce the assignment:

* :func:`multiple_assignment` — Multiple policy.  Splitting is allowed,
  so this is exactly a transportation problem: a bipartite flow network
  ``source → clients → eligible servers → sink`` solved with our Dinic
  implementation.  Feasible iff the max flow equals the total demand.
  Polynomial.
* :func:`single_assignment` — Single policy.  Whole clients must be
  packed into servers, a generalised bin-packing feasibility question
  (NP-hard); solved by backtracking over clients with
  most-constrained-first ordering, capacity pruning and a volume bound.
  Intended for the small instances the exact solver explores.

Both return ``None`` when infeasible.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.arrays import FlatTree, flat_tree
from ..core.instance import ProblemInstance
from ..core.tree import NO_PARENT, Tree
from ..flow import FlowNetwork, max_flow

__all__ = ["multiple_assignment", "single_assignment", "eligible_map", "NodRoutes"]


def eligible_map(
    instance: ProblemInstance, replicas: Iterable[int]
) -> Optional[Dict[int, List[int]]]:
    """For each demanding client, its eligible servers within ``R``.

    Returns ``None`` if some client has no eligible server at all (then
    no assignment can exist under either policy).  The walk inlines
    :meth:`Tree.eligible_servers` on the parent/delta arrays — same
    client-upward order and the same distance accumulation, without the
    per-client pair-list allocation.
    """
    tree = instance.tree
    rset = set(replicas)
    dmax = instance.dmax
    parents = tree._parents
    deltas = tree._deltas
    requests = tree._requests
    out: Dict[int, List[int]] = {}
    for c in tree.clients:
        if requests[c] == 0:
            continue
        elig: List[int] = []
        node = c
        if dmax is None:
            while node != NO_PARENT:
                if node in rset:
                    elig.append(node)
                node = parents[node]
        else:
            dist = 0.0
            while node != NO_PARENT and dist <= dmax:
                if node in rset:
                    elig.append(node)
                dist += deltas[node]
                node = parents[node]
        if not elig:
            return None
        out[c] = elig
    return out


def multiple_assignment(
    instance: ProblemInstance, replicas: Iterable[int]
) -> Optional[Dict[Tuple[int, int], int]]:
    """Assignment under the Multiple policy, or ``None`` if infeasible.

    Without a distance constraint every client's eligible set is its
    whole root path, so the eligibility structure is *laminar* and the
    lowest-server-first greedy is exact (see :func:`_assign_nod`) —
    linear time instead of a max-flow solve.  With ``dmax`` the eligible
    chains become windows, laminarity breaks, and the transportation
    network is solved with Dinic: feasible iff the maximum flow
    saturates every client's demand.
    """
    replicas = list(replicas)
    tree = instance.tree
    W = instance.capacity
    total = tree.total_requests
    rset = set(replicas)
    if instance.dmax is None:
        if total == 0:
            return {}
        if total > W * len(rset):
            return None
        return _assign_nod(tree, rset, W)
    elig = eligible_map(instance, replicas)
    if elig is None:
        return None
    if total == 0:
        return {}
    if total > W * len(rset):
        return None

    clients = sorted(elig)
    servers = sorted(set(replicas))
    cindex = {c: 1 + k for k, c in enumerate(clients)}
    sindex = {s: 1 + len(clients) + k for k, s in enumerate(servers)}
    n_nodes = 2 + len(clients) + len(servers)
    source, sink = 0, n_nodes - 1

    # Arc ids are sequential, so one bulk build plus a parallel
    # ``(client, server)`` list replaces the per-arc id bookkeeping;
    # insertion order (source arcs interleaved with each client's
    # middle arcs, then the sink arcs) is that of the original
    # per-call build, keeping the flow split identical.
    requests = tree._requests
    arcs: List[Tuple[int, int, int]] = []
    middle: List[Optional[Tuple[int, int]]] = []
    for c in clients:
        r = requests[c]
        ci = cindex[c]
        arcs.append((source, ci, r))
        middle.append(None)
        for s in elig[c]:
            arcs.append((ci, sindex[s], r))
            middle.append((c, s))
    n_client_arcs = len(arcs)
    for s in servers:
        arcs.append((sindex[s], sink, W))

    g = FlowNetwork(n_nodes)
    g.add_edges(arcs)

    if max_flow(g, source, sink) != total:
        return None
    capacity = g.capacity
    orig = g._orig_capacity
    out: Dict[Tuple[int, int], int] = {}
    for i in range(n_client_arcs):
        cs = middle[i]
        if cs is not None:
            eid = 2 * i
            f = orig[eid] - capacity[eid]
            if f > 0:
                out[cs] = f
    return out


def _assign_nod(
    tree: Tree, rset: set, W: int
) -> Optional[Dict[Tuple[int, int], int]]:
    """Exact Multiple-NoD assignment by the lowest-server-first greedy.

    Pending ``(client, amount)`` units bubble up the flat post-order;
    every replica absorbs as much as fits (FIFO in child order, the last
    entry split).  Lowest-first is exact for laminar eligibility: by
    induction up the tree the greedy's forwarded amount at every node is
    a lower bound over *all* assignments (a replica can only serve its
    own subtree, so absorbing early never starves anyone above), hence
    units stranded at the root certify infeasibility.  This is
    :meth:`NodRoutes.route` over every position.
    """
    ft = flat_tree(tree)
    n = ft.n
    orig_to_post = ft.orig_to_post
    host = bytearray(n)
    for v in rset:
        if 0 <= v < n:
            host[orig_to_post[v]] = 1
    routes = NodRoutes(n)
    if not routes.route(ft, host, W, range(n)):
        return None
    return routes.assignments


class NodRoutes:
    """The lowest-server-first Multiple-NoD routing, memoized per position.

    Attributes, indexed by post position of the routed tree's
    :class:`~repro.core.arrays.FlatTree`:

    pending:
        The ``(client, amount)`` entries ``subtree(p)`` forwards above
        ``p``, in FIFO order.
    served:
        The clients the replica at ``p`` serves (empty elsewhere).
    assignments:
        ``(client, site) -> amount`` over every position.  Snapshot it
        with ``assignments.copy()``: see :meth:`route`.

    Entries are tuples and a stored list is never mutated again, so a
    later :meth:`route` that re-routes only some positions reads the
    others' entries as they were.  A cold routing is one :meth:`route`
    over every position of a fresh memo.
    """

    __slots__ = ("pending", "served", "assignments", "_deleted")

    def __init__(self, n: int) -> None:
        self.pending: List[Sequence[Tuple[int, int]]] = [()] * n
        self.served: List[Sequence[int]] = [()] * n
        self.assignments: Dict[Tuple[int, int], int] = {}
        # Entries deleted from ``assignments`` since it was last built.
        self._deleted = 0

    def route(
        self, ft: FlatTree, host: bytearray, W: int, positions: Iterable[int]
    ) -> bool:
        """Re-route ``positions`` (ascending) for the replica flags ``host``.

        Every position whose demand or replica flag changed since the
        last routing must be listed with its whole root path; the rest
        keep their memo.  Returns ``False`` when entries are stranded at
        the root (the replica set cannot serve the demand).

        ``assignments`` is rebuilt once the entries deleted from it
        outnumber half the live ones.  ``dict.copy`` clones a dict's
        table in one ``memcpy`` while at least 2/3 of its entries are
        live, and re-inserts every key below that (``dict(m)`` does so
        after any deletion), so the rebuild keeps each snapshot a clone
        at an amortised cost.  The bound is CPython's, not a tuning
        knob.  The rebuild keeps the insertion order.
        """
        pending = self.pending
        served = self.served
        assign = self.assignments
        deleted = self._deleted
        post_to_orig = ft.post_to_orig
        demand = ft.demand
        first_child = ft.first_child
        next_sibling = ft.next_sibling
        for p in positions:
            v = post_to_orig[p]
            gone = served[p]
            deleted += len(gone)
            for client in gone:
                del assign[(client, v)]
            c = first_child[p]
            if c < 0:
                r = demand[p]
                cur: List[Tuple[int, int]] = [(v, r)] if r > 0 else []
            else:
                cur = []
                while c >= 0:
                    ch = pending[c]
                    if ch:
                        cur.extend(ch)
                    c = next_sibling[c]
            if cur and host[p]:
                room = W
                k = 0
                ncur = len(cur)
                made: List[int] = []
                while k < ncur and room > 0:
                    client, amt = cur[k]
                    made.append(client)
                    if amt <= room:
                        assign[(client, v)] = amt
                        room -= amt
                        k += 1
                    else:
                        assign[(client, v)] = room
                        cur[k] = (client, amt - room)
                        room = 0
                served[p] = made
                cur = cur[k:]
            else:
                served[p] = ()
            pending[p] = cur
        if 2 * deleted > len(assign):
            self.assignments = dict(assign)
            deleted = 0
        self._deleted = deleted
        return not pending[ft.root]


def single_assignment(
    instance: ProblemInstance,
    replicas: Iterable[int],
    node_budget: int = 2_000_000,
) -> Optional[Dict[Tuple[int, int], int]]:
    """Assignment under the Single policy, or ``None`` if infeasible.

    Backtracking search: clients are ordered by (number of eligible
    servers, -demand) so the most constrained are placed first; a server
    is tried only while it has room; a running volume bound prunes
    branches whose total remaining capacity cannot cover the remaining
    demand.  ``node_budget`` caps the number of search nodes (the search
    is exponential in the worst case — Theorem 1).
    """
    replicas = list(dict.fromkeys(replicas))
    elig = eligible_map(instance, replicas)
    if elig is None:
        return None
    tree = instance.tree
    W = instance.capacity

    clients = sorted(elig, key=lambda c: (len(elig[c]), -tree.requests(c)))
    demands = [tree.requests(c) for c in clients]
    if any(d > W for d in demands):
        return None
    total = sum(demands)
    if total > W * len(replicas):
        return None

    load: Dict[int, int] = {s: 0 for s in replicas}
    choice: List[Optional[int]] = [None] * len(clients)
    suffix_demand = [0] * (len(clients) + 1)
    for k in range(len(clients) - 1, -1, -1):
        suffix_demand[k] = suffix_demand[k + 1] + demands[k]

    budget = [node_budget]

    def backtrack(k: int) -> bool:
        if k == len(clients):
            return True
        if budget[0] <= 0:
            return False
        budget[0] -= 1
        free = sum(W - v for v in load.values())
        if suffix_demand[k] > free:
            return False
        c = clients[k]
        d = demands[k]
        tried = set()
        for s in elig[c]:
            if s in tried:
                continue
            tried.add(s)
            if load[s] + d <= W:
                load[s] += d
                choice[k] = s
                if backtrack(k + 1):
                    return True
                load[s] -= d
                choice[k] = None
        return False

    if not backtrack(0):
        return None
    return {
        (clients[k], choice[k]): demands[k]
        for k in range(len(clients))
        if demands[k] > 0
    }
