"""Step-function DP kernels: one contract, two backends, one batch form.

Every table the NoD dynamic programs manipulate is a **non-increasing
step function over an integer domain** (forwarding more requests can
never require more replicas), with an optional ``inf`` prefix and small
non-negative integer values (replica counts).  This module is the single
home for the kernels that exploit that structure:

* the **monotone min-plus convolution** :func:`min_plus_mono` (child
  table ⊞ pool) and its general quadratic reference :func:`min_plus`;
* the **absorb-window step** :func:`absorb_step` (``g(u) = min(h(u),
  1 + min_{u<U≤u+W} h(U))`` read off the pool's level structure);
* the **leaf table** builder :func:`leaf_table`;
* small fold helpers shared by the greedy solvers
  (:func:`stable_argsort`, :func:`prefix_fit`, :func:`capacity_split`).

Backends
--------
Two element-wise backends implement the same contract **bit-identically**
— same costs, same argmin tie-breaks (toward the smallest split / absorb
index), same ``-1`` no-choice sentinel:

* a pure-Python backend, for short tables;
* a NumPy backend, for long ones.

Dispatch is by operand size: NumPy wins only once tables outgrow its
per-call overhead, so :func:`min_plus_mono` and :func:`absorb_step`
switch backends at :data:`NUMPY_MIN_LEN` elements.  Because both
backends are exactly equal (property-tested in
``tests/test_kernel_conformance.py``), the threshold can never change
a result.

Batched threshold form
----------------------
For ``solve_many`` the kernels drop the dense table representation
entirely: a non-increasing integer step function is fully described by
its **threshold vector** ``T[v] = min{u : g(u) ≤ v}`` (``SENTINEL`` when
no such ``u`` exists).  In that form, over a whole batch at once:

* min-plus convolution becomes a short min-plus over the *value* axis:
  ``T_out[v] = min_{v1+v2=v} T_a[v1] + T_b[v2]`` (:func:`batch_min_plus_t`);
* the absorb step collapses to three array ops:
  ``T_out[v] = min(T_pool[v], max(T_pool[v-1] - W, 0))`` with window
  validity masks (:func:`batch_absorb_t`).

``tests/test_kernel_conformance.py`` pins both backends and the
batched form to :mod:`repro.algorithms.reference` bit-for-bit.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "NUMPY_MIN_LEN",
    "SENTINEL",
    "levels",
    "min_plus",
    "min_plus_mono",
    "absorb_step",
    "leaf_table",
    "stable_argsort",
    "prefix_fit",
    "capacity_split",
    "table_to_thresholds",
    "thresholds_to_table",
    "batch_min_plus_t",
    "batch_absorb_t",
    "batch_leaf_thresholds",
]

_INF = float("inf")

#: Threshold-form sentinel for "value unreachable" — large enough that a
#: sum of two sentinels stays far below any integer-precision limit.
SENTINEL = 1 << 20

#: Dense-kernel dispatch threshold: below this many table elements the
#: pure-Python loops beat NumPy's per-call overhead.
NUMPY_MIN_LEN = 512


# ----------------------------------------------------------------------
# Level decomposition (shared by both backends' reasoning).
# ----------------------------------------------------------------------


def levels(table: Sequence[float]) -> List[Tuple[int, int, float]]:
    """Constant runs of a non-increasing table, infinite prefix dropped.

    Parameters
    ----------
    table:
        A non-increasing cost table (every DP table is one).

    Returns
    -------
    ``[(start, end, value), ...]`` with inclusive index bounds, ordered
    by ascending ``start`` (hence strictly descending finite ``value``).
    """
    out: List[Tuple[int, int, float]] = []
    prev = _INF
    start = 0
    for j, v in enumerate(table):
        if v != prev:
            if prev != _INF:
                out.append((start, j - 1, prev))
            prev = v
            start = j
    if prev != _INF:
        out.append((start, len(table) - 1, prev))
    return out


# ----------------------------------------------------------------------
# Dense kernels — pure-Python backend.
# ----------------------------------------------------------------------


def min_plus(
    a: Sequence[float], b: Sequence[float], cap: int
) -> Tuple[List[float], List[int]]:
    """Min-plus convolution ``c(U) = min_j a(j) + b(U-j)``, ``U ≤ cap``.

    The general quadratic kernel: no assumption on ``a`` or ``b``.
    Reference implementation for the monotone fast paths; used directly
    only by tests.

    Parameters
    ----------
    a, b:
        Cost tables (``inf`` marks infeasible entries).
    cap:
        Largest ``U`` of interest; the output is truncated to it.

    Returns
    -------
    ``(out, arg)`` — the convolved table and, for reconstruction, the
    argmin split point (the amount taken from ``a``) for each ``U``;
    ties break toward the smallest split.  ``arg[U] == -1`` marks an
    infeasible entry.
    """
    n = min(len(a) + len(b) - 1, cap + 1)
    out = [_INF] * n
    arg = [-1] * n
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


def _min_plus_mono_py(
    a: Sequence[float], b: Sequence[float], cap: int
) -> Tuple[List[float], List[int]]:
    """Pure-Python monotone min-plus kernel (see :func:`min_plus_mono`)."""
    n = min(len(a) + len(b) - 1, cap + 1)
    out = [_INF] * n
    arg = [-1] * n
    b_last = len(b) - 1
    for (j0, j1, av) in levels(a):
        if j0 >= n:
            break
        # Unclamped: split j0 serves U = j0 .. j0 + b_last.
        hi_k = b_last if b_last <= n - 1 - j0 else n - 1 - j0
        for k in range(hi_k + 1):
            val = av + b[k]
            U = j0 + k
            if val < out[U]:
                out[U] = val
                arg[U] = j0
        # Clamped: for U beyond j0 + b_last the split must move right
        # with U (j = U - b_last) while it stays inside this level.
        u_hi = j1 + b_last
        if u_hi > n - 1:
            u_hi = n - 1
        if b_last >= 0:
            vb = av + b[b_last]
            for U in range(j0 + b_last + 1, u_hi + 1):
                if vb < out[U]:
                    out[U] = vb
                    arg[U] = U - b_last
    return out, arg


def _absorb_step_py(
    pool: Sequence[float], u_cap: int, W: int, can_host: bool = True
) -> Tuple[List[float], List[int]]:
    """Pure-Python absorb kernel (see :func:`absorb_step`)."""
    table = [_INF] * (u_cap + 1)
    chose = [-1] * (u_cap + 1)
    lp = len(pool)
    if not can_host:
        for u in range(u_cap + 1 if u_cap + 1 < lp else lp):
            table[u] = pool[u]
        return table, chose

    plevels = levels(pool)
    nlev = len(plevels)
    li = 0
    for u in range(u_cap + 1):
        best = pool[u] if u < lp else _INF
        pick = -1
        hi = u + W
        if hi > lp - 1:
            hi = lp - 1
        if hi >= u + 1:
            while li < nlev and plevels[li][1] < hi:
                li += 1
            if li < nlev and plevels[li][0] <= hi:
                s, _e, pv = plevels[li]
                val = pv + 1.0
                if val < best:
                    best = val
                    pick = s if s > u else u + 1
        table[u] = best
        chose[u] = pick
    return table, chose


# ----------------------------------------------------------------------
# Dense kernels — NumPy backend.
# ----------------------------------------------------------------------


def _min_plus_mono_numpy(
    a: Sequence[float], b: Sequence[float], cap: int
) -> Tuple[List[float], List[int]]:
    """NumPy monotone min-plus kernel, bit-identical to the Python one.

    Iterates the (few) constant levels of ``a`` and applies each as one
    vectorised strict-``<`` update over the output span, in the same
    ascending-level order as the Python loop — so every tie resolves to
    the same (smallest) split.
    """
    n = min(len(a) + len(b) - 1, cap + 1)
    if n <= 0:
        return [], []
    arr_b = np.asarray(b, dtype=np.float64)
    out = np.full(n, _INF)
    arg = np.full(n, -1, dtype=np.int64)
    b_last = len(b) - 1
    for (j0, j1, av) in levels(a):
        if j0 >= n:
            break
        hi_k = b_last if b_last <= n - 1 - j0 else n - 1 - j0
        seg = out[j0 : j0 + hi_k + 1]
        cand = av + arr_b[: hi_k + 1]
        mask = cand < seg
        seg[mask] = cand[mask]
        arg[j0 : j0 + hi_k + 1][mask] = j0
        u_hi = j1 + b_last
        if u_hi > n - 1:
            u_hi = n - 1
        lo = j0 + b_last + 1
        if b_last >= 0 and lo <= u_hi:
            vb = av + b[b_last]
            seg = out[lo : u_hi + 1]
            mask = vb < seg
            seg[mask] = vb
            arg[lo : u_hi + 1][mask] = (
                np.arange(lo, u_hi + 1, dtype=np.int64)[mask] - b_last
            )
    return out.tolist(), arg.tolist()


def _absorb_step_numpy(
    pool: Sequence[float], u_cap: int, W: int, can_host: bool = True
) -> Tuple[List[float], List[int]]:
    """NumPy absorb kernel, bit-identical to the Python one.

    The window minimum of a non-increasing pool sits at the window's
    right edge ``min(u+W, len-1)``; the chosen absorb index is that
    edge's level start clamped into the window — all computed as whole
    arrays, with the level starts derived by a ``maximum.accumulate``
    over the change points.
    """
    lp = len(pool)
    width = u_cap + 1
    p = np.asarray(pool, dtype=np.float64)
    if not can_host:
        table = np.full(width, _INF)
        table[: min(width, lp)] = p[: min(width, lp)]
        return table.tolist(), [-1] * width

    u = np.arange(width, dtype=np.int64)
    base = np.full(width, _INF)
    m = min(width, lp)
    base[:m] = p[:m]
    if lp == 0:
        return base.tolist(), [-1] * width
    redge = np.minimum(u + W, lp - 1)
    valid = redge >= u + 1
    pv = p[redge]
    val = pv + 1.0
    # Level start of every pool index: the change points carry their own
    # index, a running maximum propagates them across each level.
    change = np.empty(lp, dtype=bool)
    change[0] = True
    if lp > 1:
        change[1:] = p[1:] != p[:-1]
    starts = np.maximum.accumulate(np.where(change, np.arange(lp), 0))
    s = starts[redge]
    pick = np.where(s > u, s, u + 1)
    choose = valid & (val < base)
    table = np.where(choose, val, base)
    chose = np.where(choose, pick, -1)
    return table.tolist(), chose.tolist()


# ----------------------------------------------------------------------
# Dispatching entry points (the solver-facing contract).
# ----------------------------------------------------------------------


def min_plus_mono(
    a: Sequence[float], b: Sequence[float], cap: int
) -> Tuple[List[float], List[int]]:
    """:func:`min_plus` specialised to **non-increasing** ``a``.

    Decomposes ``a`` into its constant levels: within one level the
    cheapest split is always the level's left edge (a smaller ``j``
    leaves more to ``b``, whose cost is non-increasing), so only level
    starts — clamped to ``b``'s reach — compete per output index.

    Parameters
    ----------
    a:
        Non-increasing cost table (infinite prefix allowed).  **The
        caller guarantees monotonicity**; it is not checked.  As with
        :func:`absorb_step`, non-increasing means every ``inf`` is a
        prefix — infinite entries *after* a finite one break the level
        decomposition and yield silently wrong minima.
    b, cap:
        As in :func:`min_plus`; ``b`` need not be monotone for
        correctness of the minima, but tie-breaking identity with the
        general kernel additionally requires non-increasing ``b``
        (both hold for every DP pool).

    Returns
    -------
    ``(out, arg)`` — exactly what ``min_plus(a, b, cap)`` returns,
    including tie-breaking toward the smallest split (``-1`` marks an
    infeasible entry).  The backend (NumPy above ``NUMPY_MIN_LEN``
    elements, pure Python otherwise) never changes the result.
    """
    if len(a) + len(b) >= NUMPY_MIN_LEN:
        return _min_plus_mono_numpy(a, b, cap)
    return _min_plus_mono_py(a, b, cap)


def absorb_step(
    pool: Sequence[float], u_cap: int, W: int, can_host: bool = True
) -> Tuple[List[float], List[int]]:
    """The DP's absorb step over a **non-increasing** pool.

    Computes ``table[u] = min(pool[u], 1 + min_{u < U ≤ u+W} pool[U])``
    in O(1) amortised per ``u``: the pool is non-increasing, so the
    window minimum over ``(u, u+W]`` sits at its right edge, and the
    *first* index holding that value is the start of that edge's level
    (clamped into the window) — exactly the argmin the ascending scan
    of the object-graph formulation settles on.

    Parameters
    ----------
    pool:
        The children pool (non-increasing; **not checked**).  Note that
        non-increasing implies every ``inf`` entry forms a *prefix*: a
        pool with an infinite entry after a finite one violates the
        precondition, and the level scan would then silently skip
        absorb candidates whose window edge lands past the finite
        region.  All DP pools satisfy the invariant by construction
        (min-plus of inf-prefix monotone tables is inf-prefix
        monotone).
    u_cap:
        Largest forward amount of interest (table length − 1).
    W:
        Server capacity — the absorb window width.
    can_host:
        False forbids a replica here (the incremental DP's failed-host
        case): the table is the pool truncated to ``u_cap``, with every
        ``chose`` entry ``-1``.

    Returns
    -------
    ``(table, chose)`` — the node table and the chosen absorb source
    per ``u`` (``-1`` = no replica at this node), bit-identical to
    the original quadratic scan in either backend.
    """
    if u_cap + 1 >= NUMPY_MIN_LEN:
        return _absorb_step_numpy(pool, u_cap, W, can_host)
    return _absorb_step_py(pool, u_cap, W, can_host)


def leaf_table(r: int, u_cap: int, W: int) -> List[float]:
    """The DP leaf table: serving ``r − u`` locally takes one replica.

    ``g(u) = 0`` for ``u ≥ r``, ``1`` for ``r − W ≤ u < r`` and ``inf``
    below, truncated to ``u ≤ u_cap``.
    """
    table: List[float] = []
    for u in range(u_cap + 1):
        if u >= r:
            table.append(0.0)
        elif r - u <= W:
            table.append(1.0)
        else:
            table.append(_INF)
    return table


# ----------------------------------------------------------------------
# Fold helpers for the greedy solvers.
# ----------------------------------------------------------------------


def stable_argsort(keys: Sequence) -> List[int]:
    """Indices that stably sort ``keys`` ascending.

    Equal keys keep their input order — the tie-break every greedy fold
    in this repository relies on.  NumPy's stable argsort and Python's
    ``sorted`` are interchangeable here by definition of stability.
    """
    if len(keys) >= NUMPY_MIN_LEN:
        return np.argsort(np.asarray(keys), kind="stable").tolist()
    return sorted(range(len(keys)), key=keys.__getitem__)


def prefix_fit(demands: Sequence[int], W: int) -> int:
    """Longest prefix of ``demands`` whose sum fits a server.

    Returns the first index ``k`` with ``demands[0] + … + demands[k] >
    W`` (``len(demands)`` if the whole list fits) — the packing scan of
    Algorithm 2: ``demands[:k]`` are packed, ``demands[k]`` is the
    overflow entry.
    """
    if len(demands) >= NUMPY_MIN_LEN:
        c = np.cumsum(np.asarray(demands, dtype=np.int64))
        return int(np.searchsorted(c, W, side="right"))
    acc = 0
    for k, d in enumerate(demands):
        acc += d
        if acc > W:
            return k
    return len(demands)


def capacity_split(weights: Sequence[int], W: int) -> Tuple[int, int]:
    """How a capacity-``W`` absorb consumes a weight list FIFO.

    Returns ``(k_full, partial)``: the first ``k_full`` entries are
    absorbed whole, then ``partial`` units (possibly 0) of entry
    ``k_full`` — the consumption pattern of ``multiple-greedy``'s
    replica-opening scan.
    """
    if len(weights) >= NUMPY_MIN_LEN:
        c = np.cumsum(np.asarray(weights, dtype=np.int64))
        k_full = int(np.searchsorted(c, W, side="right"))
        if k_full >= len(weights):
            return k_full, 0
        before = int(c[k_full - 1]) if k_full else 0
        return k_full, max(W - before, 0)
    acc = 0
    for k, w in enumerate(weights):
        if acc + w > W:
            return k, W - acc
        acc += w
    return len(weights), 0


# ----------------------------------------------------------------------
# Batched threshold form.
# ----------------------------------------------------------------------


def table_to_thresholds(table: Sequence[float], n_values: int) -> List[int]:
    """Threshold vector of a dense table: ``T[v] = min{u : g(u) ≤ v}``.

    ``SENTINEL`` marks values the table never reaches.  Pure-Python
    conversion helper for tests and per-instance reconstruction.
    """
    out = [SENTINEL] * n_values
    for u in range(len(table) - 1, -1, -1):
        v = table[u]
        if v == _INF:
            break
        iv = int(v)
        if iv < n_values:
            out[iv] = u
    # A threshold for value v also covers every larger value.
    best = SENTINEL
    for v in range(n_values):
        if out[v] < best:
            best = out[v]
        out[v] = best
    return out


def thresholds_to_table(t: Sequence[int], length: int) -> List[float]:
    """Dense table from a threshold vector (inverse of the above)."""
    out = [_INF] * length
    for v in range(len(t) - 1, -1, -1):
        tv = t[v]
        if tv >= length or tv >= SENTINEL:
            continue
        for u in range(tv, length):
            if out[u] > v:
                out[u] = float(v)
    return out


def batch_leaf_thresholds(r, u_cap, W: int):
    """Leaf thresholds for a whole batch: ``(B, 2)`` int32.

    ``T[·,0] = r`` (zero replicas ⇔ forward everything) and
    ``T[·,1] = max(r − W, 0)`` (one replica), both ``SENTINEL`` when
    past the leaf's ``u_cap``.
    """
    r = np.asarray(r, dtype=np.int32)
    u_cap = np.asarray(u_cap, dtype=np.int32)
    t0 = np.where(r <= u_cap, r, SENTINEL)
    t1 = np.maximum(r - W, 0)
    t1 = np.where(t1 <= u_cap, t1, SENTINEL)
    return np.stack([t0, np.minimum(t0, t1)], axis=1).astype(np.int32)


def batch_min_plus_t(ta, len_a, tb, len_b, cap):
    """Batched min-plus convolution in threshold form.

    ``T_out[b, v] = min_{v1+v2=v} T_a[b, v1] + T_b[b, v2]`` — a short
    min-plus over the *value* axis (table values are replica counts, so
    the axis is tiny) — clipped to each instance's output length
    ``min(len_a + len_b − 1, cap + 1)``.

    Parameters
    ----------
    ta, tb:
        ``(B, Va)`` / ``(B, Vb)`` int32 threshold matrices.
    len_a, len_b:
        ``(B,)`` dense lengths of the underlying tables.
    cap:
        ``(B,)`` per-instance output caps.

    Returns
    -------
    ``(t_out, len_out)`` — ``(B, Va+Vb−1)`` thresholds and ``(B,)``
    dense output lengths.
    """
    B, va = ta.shape
    vb = tb.shape[1]
    out = np.full((B, va + vb - 1), 2 * SENTINEL, dtype=np.int32)
    for v1 in range(va):
        seg = out[:, v1 : v1 + vb]
        np.minimum(seg, ta[:, v1 : v1 + 1] + tb, out=seg)
    len_out = np.minimum(len_a + len_b - 1, cap + 1)
    np.minimum(out, SENTINEL, out=out)
    out[out > (len_out - 1)[:, None]] = SENTINEL
    return out, len_out


def batch_absorb_t(t_pool, len_pool, u_cap, W: int):
    """Batched absorb step in threshold form.

    Reaching value ``v`` with a replica here means the pool reaches
    ``v − 1`` somewhere in the window ``(u, u+W]``: the earliest such
    ``u`` is ``max(T_pool[v−1] − W, 0)``, valid while the pool's
    threshold lies inside the pool and the window is non-empty.

    Parameters
    ----------
    t_pool:
        ``(B, Vp)`` int32 pool thresholds.
    len_pool:
        ``(B,)`` dense pool lengths.
    u_cap:
        ``(B,)`` per-instance table caps.
    W:
        Server capacity (shared across the batch — the bucket key).

    Returns
    -------
    ``(t_tab, len_tab)`` — ``(B, Vp+1)`` thresholds and ``(B,)`` dense
    table lengths (``u_cap + 1``).
    """
    B, vp = t_pool.shape
    t_tab = np.empty((B, vp + 1), dtype=np.int32)
    t_tab[:, :vp] = t_pool
    # The widened top value inherits the pool's last threshold: a table
    # reaching value vp−1 at u also reaches every larger value there.
    t_tab[:, vp] = t_pool[:, vp - 1]
    lo = np.maximum(t_pool - W, 0)
    ok = (t_pool <= (len_pool - 1)[:, None]) & (lo <= (len_pool - 2)[:, None])
    cand = np.where(ok, lo, SENTINEL).astype(np.int32)
    np.minimum(t_tab[:, 1:], cand, out=t_tab[:, 1:])
    t_tab[t_tab > u_cap[:, None]] = SENTINEL
    return t_tab, u_cap + 1
