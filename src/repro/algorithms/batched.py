"""Batched Multiple-NoD solves: one array program over many instances.

``solve_many`` answers a list of instances with exactly the placements
``[multiple_nod_dp(x) for x in instances]`` would produce, but runs the
dynamic program of same-*shape* instances as **one NumPy array
program**.  Two instances share a shape bucket when their compiled
:class:`~repro.core.arrays.FlatTree` topologies (parent / child-chain
arrays) and server capacity ``W`` coincide — the situation of every
demand sweep, scenario replay and service burst, where one tree is
re-solved under many request vectors.

Threshold form
--------------
Every DP table is a non-increasing integer step function, so instead of
the dense ``g_v(u)`` tables the batch carries **threshold matrices**
``T[b, v] = min{u : g(u) ≤ v}`` (``SENTINEL`` = unreachable): the value
axis is tiny (replica counts), and per tree node the whole batch folds
with :func:`repro.core.kernels.batch_min_plus_t` (a short min-plus over
the value axis) and :func:`repro.core.kernels.batch_absorb_t` (three
array ops).  Placements are reconstructed per instance from the stored
intermediate pool thresholds by rules that provably settle every argmin
tie exactly like the dense kernels — so the result is **bit-identical**
to the sequential solver (property-tested in
``tests/test_kernel_conformance.py``).

Instances that cannot batch — distance-constrained, non-Multiple, or
singleton buckets — fall back to
:func:`~repro.algorithms.multiple_nod_dp.multiple_nod_dp` one by one,
with identical results and identical exceptions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.arrays import flat_tree
from ..core.errors import PolicyError
from ..core.instance import ProblemInstance
from ..core.placement import Placement
from ..core.policies import Policy
from .multiple_nod_dp import multiple_nod_dp

__all__ = ["solve_many", "MIN_BATCH"]

#: Buckets smaller than this solve per-instance — below it the array
#: program's fixed per-batch cost outweighs the amortisation.
MIN_BATCH = 2


def _bucket_key(instance: ProblemInstance) -> Tuple:
    """Shape key: instances with equal keys stack into one array program.

    The FlatTree child chains pin the topology *and* the child order —
    convolution order and hence every tie-break depend on it.
    """
    ft = flat_tree(instance.tree)
    return (
        instance.capacity,
        tuple(ft.parent),
        tuple(ft.first_child),
        tuple(ft.next_sibling),
    )


def _delegate(inst: ProblemInstance, return_exceptions: bool):
    """One sequential solve; optionally materialise the raise."""
    if not return_exceptions:
        return multiple_nod_dp(inst)
    try:
        return multiple_nod_dp(inst)
    except Exception as exc:  # noqa: BLE001 — caller maps per instance
        return exc


def solve_many(
    instances: Sequence[ProblemInstance],
    *,
    return_exceptions: bool = False,
) -> List[Placement]:
    """Solve every instance, batching same-shape Multiple-NoD solves.

    Parameters
    ----------
    instances:
        Any mix of instances.  Multiple-policy instances without a
        distance constraint are grouped by shape and solved as array
        programs; everything else is delegated to
        :func:`multiple_nod_dp` per instance (which raises the same
        exceptions a sequential loop would).
    return_exceptions:
        When True, a per-instance failure (infeasibility in
        particular) becomes the raised exception *object* at that
        instance's position instead of aborting the whole batch —
        the service façade and the sweep runner map each outcome to
        its own status.

    Returns
    -------
    list[Placement]
        ``[multiple_nod_dp(x) for x in instances]``, bit-identically,
        in input order (exceptions interleaved when
        ``return_exceptions``).
    """
    results: List[Optional[Placement]] = [None] * len(instances)
    buckets: Dict[Tuple, List[int]] = {}
    for idx, inst in enumerate(instances):
        if inst.policy is not Policy.MULTIPLE or inst.has_distance_constraint:
            results[idx] = _delegate(inst, return_exceptions)
            continue
        buckets.setdefault(_bucket_key(inst), []).append(idx)

    for idxs in buckets.values():
        if len(idxs) < MIN_BATCH:
            for i in idxs:
                results[i] = _delegate(instances[i], return_exceptions)
        else:
            for i, placement in zip(
                idxs,
                _solve_bucket([instances[i] for i in idxs], return_exceptions),
            ):
                results[i] = placement
    return results  # type: ignore[return-value]


# ----------------------------------------------------------------------
# One shape bucket = one array program.
# ----------------------------------------------------------------------


def _solve_bucket(
    insts: List[ProblemInstance], return_exceptions: bool = False
) -> List[Placement]:
    from ..core.kernels import (
        batch_absorb_t,
        batch_leaf_thresholds,
        batch_min_plus_t,
    )

    B = len(insts)
    ft0 = flat_tree(insts[0].tree)
    W = insts[0].capacity
    n = ft0.n
    root = ft0.root
    depth = ft0.depth
    first_child = ft0.first_child
    next_sibling = ft0.next_sibling
    post_to_orig = ft0.post_to_orig

    fts = [flat_tree(inst.tree) for inst in insts]
    demand = np.array([ft.demand for ft in fts], dtype=np.int32)
    sdem = np.array([ft.subtree_demand for ft in fts], dtype=np.int32)

    # Forward pass: per post position, the whole batch at once.  For the
    # unwind we keep every node's threshold row plus, per internal node,
    # the pool row *before* each child's convolution and the final
    # (pre-absorb) pool.
    t_rows: List = [None] * n
    t_lens: List = [None] * n
    conv_store: List[Optional[List[Tuple[int, object, object]]]] = [None] * n
    pool_final: List = [None] * n

    for p in range(n):
        u_cap = np.minimum(sdem[:, p], W * depth[p])
        if first_child[p] < 0:
            t_rows[p] = batch_leaf_thresholds(demand[:, p], u_cap, W)
            t_lens[p] = (u_cap + 1).astype(np.int64)
            continue
        pool_cap = np.minimum(sdem[:, p], W * (depth[p] + 1))
        pool = np.zeros((B, 1), dtype=np.int32)
        plen = np.ones(B, dtype=np.int64)
        store: List[Tuple[int, object, object]] = []
        c = first_child[p]
        while c >= 0:
            store.append((c, pool, plen))
            pool, plen = batch_min_plus_t(
                t_rows[c], t_lens[c], pool, plen, pool_cap
            )
            c = next_sibling[c]
        conv_store[p] = store
        pool_final[p] = (pool, plen)
        t_rows[p], t_lens[p] = batch_absorb_t(pool, plen, u_cap, W)

    # Per-instance unwind + flow routing, as in the sequential solver.
    placements: List[Placement] = []
    from .feasibility import multiple_assignment

    for i, inst in enumerate(insts):
        if _value_at(t_rows[root][i].tolist(), int(t_lens[root][i]), 0) is None:
            # Root unreachable: delegate for the identical diagnostic.
            placements.append(_delegate(inst, return_exceptions))
            continue
        replicas = _reconstruct(
            i,
            W,
            n,
            root,
            first_child,
            post_to_orig,
            demand,
            t_rows,
            t_lens,
            conv_store,
            pool_final,
        )
        assign = multiple_assignment(inst, replicas)
        if assign is None:  # pragma: no cover - contradicts DP feasibility
            raise PolicyError("DP replica set failed flow verification")
        used = set(replicas)
        for (_c, s) in assign:
            used.add(s)
        placements.append(Placement(used, dict(assign)))
    return placements


# ----------------------------------------------------------------------
# Threshold-form reconstruction — dense argmins recovered exactly.
# ----------------------------------------------------------------------


def _value_at(row: List[int], length: int, u: int) -> Optional[int]:
    """Dense table value at ``u`` from a threshold row (None = ``inf``).

    ``row`` is non-increasing, so the value is the first ``v`` with
    ``row[v] ≤ u`` (binary search).
    """
    if u >= length:
        return None
    lo, hi = 0, len(row)
    while lo < hi:
        mid = (lo + hi) // 2
        if row[mid] <= u:
            hi = mid
        else:
            lo = mid + 1
    return lo if lo < len(row) else None


def _absorb_arg(pool, vp: int, lp: int, u: int, W: int) -> int:
    """The dense absorb argmin at ``u``, read off pool thresholds.

    The window minimum of a non-increasing pool sits at the right edge
    ``redge``; the dense kernel picks that edge's level start clamped
    into the window, iff absorbing beats the pool — identical here with
    the level start read as ``T_pool[value(redge)]``.  The beats-test
    needs no exact pool value at ``u``: ``pool(u) > pv + 1`` iff the
    threshold for value ``pv + 1`` lies past ``u``.
    """
    redge = u + W
    if redge > lp - 1:
        redge = lp - 1
    if redge < u + 1:
        return -1
    pv = _value_at(pool, lp, redge)
    if pv is None:
        return -1
    w = pv + 1
    if w > vp - 1:
        w = vp - 1  # the top column covers every larger value
    if pool[w] <= u:
        return -1
    s = pool[pv]
    return s if s > u else u + 1


def _conv_arg(ta, len_a: int, tb, vb: int, len_b: int, U: int, out_val: int):
    """The dense convolution argmin at ``U``, read off thresholds.

    The dense kernel scans the levels of ``a`` by ascending start —
    i.e. by *descending* value — writing on strict ``<``, so the winner
    is the highest ``a``-value level achieving ``out_val``; within a
    level the split is its start ``j0`` while ``b`` reaches, else the
    clamped ``U − (len_b − 1)``.  Values above ``out_val`` cannot match
    (``b`` is non-negative), so the scan starts at ``out_val``.  The
    match test ``b(k) == out_val − v`` is two O(1) threshold probes:
    ``T_b[out_val − v] ≤ k`` and (unless 0) ``T_b[out_val − v − 1] > k``.
    """
    b_last = len_b - 1
    la1 = len_a - 1
    for v in range(min(len(ta) - 1, out_val), -1, -1):
        j0 = ta[v]
        if j0 > U or j0 > la1:
            continue
        if v >= 1 and ta[v - 1] == j0:
            continue  # value v not present in a
        j1 = ta[v - 1] - 1 if v >= 1 else la1
        if j1 > la1:
            j1 = la1
        if U - j0 <= b_last:
            j = j0
        elif U - b_last <= j1:
            j = U - b_last
        else:
            continue
        bv = out_val - v
        if bv > vb - 1:
            continue
        k = U - j
        if tb[bv] <= k and (bv == 0 or tb[bv - 1] > k):
            return int(j)
    return None


def _reconstruct(
    i: int,
    W: int,
    n: int,
    root: int,
    first_child: Sequence[int],
    post_to_orig: Sequence[int],
    demand,
    t_rows,
    t_lens,
    conv_store,
    pool_final,
) -> List[int]:
    """Replica set of instance ``i`` — the dense walk over thresholds."""
    forward = [0] * n
    stack = [root]
    replicas: List[int] = []
    demand_i = demand[i]
    while stack:
        p = stack.pop()
        u = forward[p]
        if first_child[p] < 0:
            if u < demand_i[p]:
                replicas.append(post_to_orig[p])
            continue
        prow_m, plen_v = pool_final[p]
        prow = prow_m[i].tolist()
        pl = int(plen_v[i])
        U = u
        src = _absorb_arg(prow, len(prow), pl, u, W)
        if src >= 0:
            replicas.append(post_to_orig[p])
            U = src
        remaining = U
        out_val = _value_at(prow, pl, remaining)
        for (child, ppool, pplen) in reversed(conv_store[p]):
            ta = t_rows[child][i].tolist()
            la = int(t_lens[child][i])
            tb = ppool[i].tolist()
            lb = int(pplen[i])
            assert out_val is not None
            j = _conv_arg(ta, la, tb, len(tb), lb, remaining, out_val)
            assert j is not None and j >= 0
            forward[child] = j
            remaining -= j
            stack.append(child)
            out_val = _value_at(tb, lb, remaining)
        assert remaining == 0
    return replicas
