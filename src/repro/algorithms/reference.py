"""Pre-rewrite object-graph solver baselines.

The hot loops of ``multiple-nod-dp``, ``single-nod`` and
``multiple-greedy`` were rewritten onto the flat-array substrate
(:mod:`repro.core.arrays`).  This module preserves their original
pointer-walking formulations **verbatim** for two purposes:

1. **Equivalence oracle** — ``tests/test_arrays.py`` property-tests
   that the flat-path solvers return bit-identical placements to these
   references over the randomized ``tree_instances`` strategy.
2. **Performance baseline** — ``repro bench`` times flat vs reference
   on the pinned corpus and records the speedup in every
   ``BENCH_*.json`` snapshot (see ``docs/performance.md``).

:data:`REFERENCE_PAIRS` names each registered solver's reference; the
conformance harness's flat-reference invariant and ``repro bench`` both
read it.

None of these register with the solver registry: they are baselines,
not production entry points.  Do not "fix" or optimise them — their
whole value is staying exactly what the registered solvers used to be.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..core.errors import InfeasibleInstanceError, PolicyError
from ..core.instance import ProblemInstance
from ..core.placement import Placement

__all__ = [
    "REFERENCE_PAIRS",
    "multiple_nod_dp_reference",
    "single_nod_reference",
    "multiple_greedy_reference",
]

_INF = float("inf")


def _min_plus(
    a: List[float], b: List[float], cap: int
) -> Tuple[List[float], List[Optional[int]]]:
    """Quadratic min-plus convolution (the original DP kernel)."""
    n = min(len(a) + len(b) - 1, cap + 1)
    out = [_INF] * n
    arg: List[Optional[int]] = [None] * n
    for j, aj in enumerate(a):
        if aj == _INF or j >= n:
            continue
        hi = min(len(b), n - j)
        for k in range(hi):
            val = aj + b[k]
            if val < out[j + k]:
                out[j + k] = val
                arg[j + k] = j
    return out, arg


def multiple_nod_dp_reference(instance: ProblemInstance) -> Placement:
    """The original object-graph Multiple-NoD DP (optimal)."""
    if instance.has_distance_constraint:
        raise PolicyError(
            "multiple_nod_dp solves the NoD variants only; use "
            "exact_multiple for distance-constrained instances"
        )
    tree = instance.tree
    W = instance.capacity
    root = tree.root

    n = len(tree)
    anc_count = [0] * n
    for v in tree.topological_order():
        if v != root:
            anc_count[v] = anc_count[tree.parent(v)] + 1

    g: List[List[float]] = [[] for _ in range(n)]
    conv_args: List[List[Tuple[int, List[Optional[int]]]]] = [
        [] for _ in range(n)
    ]
    pool_tables: List[List[float]] = [[] for _ in range(n)]
    absorb_from: List[List[Optional[int]]] = [[] for _ in range(n)]

    subtree_demand = [0] * n
    for v in tree.postorder():
        subtree_demand[v] = tree.requests(v) + sum(
            subtree_demand[c] for c in tree.children(v)
        )

    for v in tree.postorder():
        u_cap = min(subtree_demand[v], W * anc_count[v])
        if tree.is_leaf(v):
            r = tree.requests(v)
            table = []
            for u in range(u_cap + 1):
                if u >= r:
                    table.append(0.0)
                elif r - u <= W:
                    table.append(1.0)
                else:
                    table.append(_INF)
            g[v] = table
            continue

        pool_cap = min(subtree_demand[v], W * (anc_count[v] + 1))
        pool: List[float] = [0.0]
        args: List[Tuple[int, List[Optional[int]]]] = []
        for child in tree.children(v):
            pool, arg = _min_plus(g[child], pool, pool_cap)
            args.append((child, arg))
        conv_args[v] = args
        pool_tables[v] = pool

        table = [_INF] * (u_cap + 1)
        chose: List[Optional[int]] = [None] * (u_cap + 1)
        for u in range(u_cap + 1):
            if u < len(pool) and pool[u] < table[u]:
                table[u] = pool[u]
                chose[u] = None
            hi = min(u + W, len(pool) - 1)
            for U in range(u + 1, hi + 1):
                val = pool[U] + 1.0
                if val < table[u]:
                    table[u] = val
                    chose[u] = U
        g[v] = table
        absorb_from[v] = chose

    if not g[root] or g[root][0] == _INF:  # pragma: no cover - defensive
        raise PolicyError("DP failed to cover the demand")

    replicas: List[int] = []
    assignments: Dict[Tuple[int, int], int] = {}
    forward: Dict[int, int] = {root: 0}
    stack = [root]
    while stack:
        v = stack.pop()
        u = forward[v]
        if tree.is_leaf(v):
            if u < tree.requests(v):
                replicas.append(v)
            continue
        U = u
        src = absorb_from[v][u]
        if src is not None:
            replicas.append(v)
            U = src
        remaining = U
        for child, arg in reversed(conv_args[v]):
            take = arg[remaining]
            assert take is not None
            forward[child] = take
            remaining -= take
            stack.append(child)
        assert remaining == 0

    from .feasibility import multiple_assignment

    assign = multiple_assignment(instance, replicas)
    if assign is None:  # pragma: no cover - contradicts DP feasibility
        raise PolicyError("DP replica set failed flow verification")
    used = set(replicas)
    for (c, s) in assign:
        used.add(s)
    assignments = dict(assign)
    return Placement(used, assignments)


# ----------------------------------------------------------------------
@dataclass
class _Entry:
    node: int
    demand: int
    bundle: List[Tuple[int, int]] = field(default_factory=list)


def single_nod_reference(instance: ProblemInstance) -> Placement:
    """The original object-graph Algorithm 2 (Single-NoD greedy)."""
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
            entries.sort(key=lambda e: e.demand)
            packed: List[_Entry] = []
            acc = 0
            k = 0
            overflow: _Entry = None  # type: ignore[assignment]
            while k < len(entries):
                if acc + entries[k].demand > W:
                    overflow = entries[k]
                    k += 1
                    break
                acc += entries[k].demand
                packed.append(entries[k])
                k += 1
            open_replica(j, packed)
            open_replica(overflow.node, [overflow])
            leftovers = entries[k:]
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
            else:
                if total > 0:
                    merged = _Entry(j, total, [])
                    for e in entries:
                        merged.bundle.extend(e.bundle)
                    aggregate[j] = merged
                else:
                    aggregate[j] = None

    return Placement(replicas, assignments)


# ----------------------------------------------------------------------
def multiple_greedy_reference(instance: ProblemInstance) -> Placement:
    """The original object-graph any-arity Multiple heuristic."""
    tree = instance.tree
    W = instance.capacity
    if tree.max_request > W:
        raise InfeasibleInstanceError(
            f"multiple_greedy requires r_i <= W (max r_i = "
            f"{tree.max_request}, W = {W})"
        )
    dmax = math.inf if instance.dmax is None else float(instance.dmax)

    n = len(tree)
    root = tree.root
    in_R = [False] * n
    assignments: Dict[Tuple[int, int], int] = {}
    pending: List[List[Tuple[float, int, int]]] = [[] for _ in range(n)]

    def serve(at: int, triples: List[Tuple[float, int, int]]) -> None:
        in_R[at] = True
        for (_d, w, i) in triples:
            if w > 0:
                assignments[(i, at)] = assignments.get((i, at), 0) + w

    for j in tree.postorder():
        if tree.is_leaf(j):
            r = tree.requests(j)
            if r == 0:
                continue
            if j == root or tree.delta(j) > dmax:
                serve(j, [(0.0, r, j)])
            else:
                pending[j] = [(0.0, r, j)]
            continue

        temp: List[Tuple[float, int, int]] = []
        for child in tree.children(j):
            dc = tree.delta(child)
            temp.extend((d + dc, w, i) for (d, w, i) in pending[child])
            pending[child] = []
        if not temp:
            continue
        temp.sort(key=lambda t: -t[0])
        wtot = sum(w for (_d, w, _i) in temp)
        is_root = j == root

        if is_root or temp[0][0] + tree.delta(j) > dmax or wtot > W:
            absorbed: List[Tuple[float, int, int]] = []
            wproc = 0
            k = 0
            while k < len(temp) and wproc < W:
                d, w, i = temp[k]
                take = min(w, W - wproc)
                absorbed.append((d, take, i))
                if take < w:
                    temp[k] = (d, w - take, i)
                else:
                    k += 1
                wproc += take
            serve(j, absorbed)
            temp = temp[k:]

        if temp and (is_root or temp[0][0] + tree.delta(j) > dmax):
            stuck: List[Tuple[float, int, int]] = []
            moving: List[Tuple[float, int, int]] = []
            for (d, w, i) in temp:
                if is_root or d + tree.delta(j) > dmax:
                    stuck.append((d, w, i))
                else:
                    moving.append((d, w, i))
            for (d, w, i) in stuck:
                serve(i, [(0.0, w, i)])
            temp = moving
        pending[j] = temp

    replicas = [v for v in range(n) if in_R[v]]
    return Placement(replicas, assignments)


#: Registered flat-path solver -> its preserved object-graph reference.
REFERENCE_PAIRS: Dict[str, Callable[[ProblemInstance], Placement]] = {
    "multiple-nod-dp": multiple_nod_dp_reference,
    "single-nod": single_nod_reference,
    "multiple-greedy": multiple_greedy_reference,
}
