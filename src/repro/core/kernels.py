"""Threshold-row kernels of the Multiple-NoD dynamic program.

Every table the DP manipulates is a **non-increasing step function**
``g(u)`` over the forward amount ``u`` (forwarding more can never need
more replicas), infinite on a prefix and valued in small integers
(replica counts).  The DP stores each one as a **threshold row**
``(v0, T, length)``:

* ``v0`` — the smallest value ``g`` reaches;
* ``T[i] = min{u : g(u) ≤ v0 + i}``, with trailing entries equal to
  their predecessor dropped, so the last entry covers every larger
  value (``g`` is infinite below it);
* ``length`` — how many forward amounts the table covers (``u_cap + 1``
  in the DP); ``g(u)`` is infinite for ``u ≥ length``.

An empty ``T`` is a table that reaches no value.  ``T`` is
non-increasing, and a DP row is never longer than the dense table it
replaces (``len(T) ≤ length``): DP tables drop by at most one replica
per forwarded unit, so every value between ``v0`` and the largest
finite one is reached at a distinct ``u``.  ``v0`` is what keeps wide
nodes short — the pool of a 4000-leaf star starts near value 3990, and
a row anchored at value 0 would carry one unreachable entry per child.

Kernels
-------
* :func:`leaf_row` — the leaf table;
* :func:`min_plus` — the children-pool convolution, a min-plus over the
  *value* axis, ``T_c[i] = min_{i1+i2=i} T_a[i1] + T_b[i2]``, in
  ``O(len(T_a) · len(T_b))``;
* :func:`absorb` — the optional replica at the node:
  ``g(u) = min(h(u), 1 + min_{u<U≤u+W} h(U))`` becomes
  ``T[i] = min(T_h[i], max(T_h[i−1] − W, 0))``.

Reconstruction probes
---------------------
The DP's top-down walk needs the argmins a dense DP would record.  Three
probes read them off the stored rows with the dense tie-breaks:

* :func:`value_at` — the table value at ``u``;
* :func:`conv_arg` — the smallest split of a convolution;
* :func:`absorb_arg` — the absorb source: the level start of the window
  minimum.

``tests/test_kernel_conformance.py`` pins every kernel and probe to the
quadratic dense references.  The module also holds the fold helpers of
the greedy solvers (:func:`stable_argsort`, :func:`prefix_fit`,
:func:`capacity_split`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

__all__ = [
    "Row",
    "ZERO_ROW",
    "leaf_row",
    "min_plus",
    "absorb",
    "value_at",
    "conv_arg",
    "absorb_arg",
    "stable_argsort",
    "prefix_fit",
    "capacity_split",
]

#: A threshold row ``(v0, T, length)`` (see the module docstring).
Row = Tuple[int, List[int], int]

#: The pool before any child: forwarding 0 costs 0 replicas.
ZERO_ROW: Row = (0, [0], 1)


def _clip(v0: int, t: List[int], length: int) -> Row:
    """The row of ``(v0, t)`` restricted to ``u < length``.

    ``t`` is non-increasing, so the entries past the last covered
    amount are a prefix: dropping them raises ``v0``.
    """
    last = length - 1
    i = 0
    n = len(t)
    while i < n and t[i] > last:
        i += 1
    if i:
        return (v0 + i, t[i:], length)
    return (v0, t, length)


def leaf_row(r: int, u_cap: int, W: int, can_host: bool = True) -> Row:
    """The leaf table: serving ``r − u`` locally takes one replica.

    ``g(u) = 0`` for ``u ≥ r`` and ``1`` for ``r − W ≤ u < r``,
    truncated to ``u ≤ u_cap``.  A leaf that cannot host (a failed
    host) reaches only value 0, at ``u ≥ r``.
    """
    if can_host and r > 0:
        return _clip(0, [r, r - W if r > W else 0], u_cap + 1)
    return _clip(0, [r], u_cap + 1)


def min_plus(a: Row, b: Row, cap: int) -> Row:
    """Min-plus convolution ``c(U) = min_{j+k=U} a(j) + b(k)``, ``U ≤ cap``.

    Both tables are non-increasing, so ``c`` reaches ``va + vb + i`` at
    ``U`` iff some ``i1 + i2 = i`` has ``T_a[i1] + T_b[i2] ≤ U`` — a
    min-plus over the value axis.  Normalised inputs (no trailing
    duplicates) give a normalised output.
    """
    va, ta, la = a
    vb, tb, lb = b
    length = la + lb - 1
    if length > cap + 1:
        length = cap + 1
    if not ta or not tb:
        return (va + vb, [], length if length > 0 else 0)
    last = len(tb) - 1
    out = [ta[0] + y for y in tb]
    for i1 in range(1, len(ta)):
        x = ta[i1]
        for i2 in range(last):
            s = x + tb[i2]
            if s < out[i1 + i2]:
                out[i1 + i2] = s
        out.append(x + tb[last])
    return _clip(va + vb, out, length)


def absorb(pool: Row, u_cap: int, W: int, can_host: bool = True) -> Row:
    """The node table: the pool, or one replica here absorbing ``1..W``.

    ``g(u) = min(h(u), 1 + min_{u<U≤u+W} h(U))`` for ``u ≤ u_cap``.
    The pool reaches ``v − 1`` somewhere in the window ``(u, u+W]`` from
    ``u = max(T_h[v−1] − W, 0)`` on, as long as the window holds a pool
    index, so ``T[v] = min(T_h[v], max(T_h[v−1] − W, 0))``.  The row
    gains one value on top: the pool's last level plus one replica.

    Parameters
    ----------
    pool:
        The children pool ``h``.
    u_cap:
        Largest forward amount of interest.  The DP's pool always
        covers it; amounts past the pool stay infinite.
    W:
        Server capacity — the absorb window width.
    can_host:
        False forbids a replica here (a failed host): the row is the
        pool clipped to ``u_cap``.
    """
    vp, tp, lp = pool
    length = u_cap + 1 if u_cap < lp else lp
    if not can_host or lp < 2 or not tp:
        # lp < 2: the window (u, u+W] never holds a pool index.
        return _clip(vp, tp, length)
    prev = tp[0]
    out = [prev]
    for x in tp[1:]:
        lo = prev - W
        out.append(x if x < lo else (lo if lo > 0 else 0))
        prev = x
    lo = prev - W
    out.append(lo if lo > 0 else 0)
    while len(out) > 1 and out[-1] == out[-2]:
        out.pop()
    return _clip(vp, out, length)


def value_at(row: Row, u: int) -> Optional[int]:
    """The table value at ``u`` (``None`` = infinite)."""
    v0, t, length = row
    if u >= length or not t or t[-1] > u:
        return None
    lo, hi = 0, len(t) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if t[mid] <= u:
            hi = mid
        else:
            lo = mid + 1
    return v0 + lo


def conv_arg(a: Row, b: Row, U: int, value: int) -> int:
    """The split of :func:`min_plus` at ``U``: the amount taken from ``a``.

    Returns the smallest ``j`` with ``a(j) + b(U − j) = value`` — the
    tie-break of the quadratic dense kernel — or ``-1`` if none.  ``a``
    takes value ``va + i`` on ``[T_a[i], T_a[i−1])``, so levels of
    higher value lie further left; scanning them from the highest
    value that can still match, the first level whose span meets the
    ``b`` side's feasible window holds the answer.
    """
    va, ta, la = a
    vb, tb, lb = b
    top = value - va - vb
    if top > len(ta) - 1:
        top = len(ta) - 1
    nb = len(tb)
    j_min = U - lb + 1  # b covers k ≤ lb − 1
    for i in range(top, -1, -1):
        j0 = ta[i]
        j1 = ta[i - 1] - 1 if i else la - 1
        ib = value - va - i - vb
        k0 = tb[ib] if ib < nb else tb[-1]
        lo = j0 if j0 > j_min else j_min
        hi = U - k0
        if hi > j1:
            hi = j1
        if lo <= hi:
            return lo
    return -1


def absorb_arg(pool: Row, u: int, W: int) -> int:
    """The absorb source of :func:`absorb` at ``u`` (``-1`` = no replica).

    The window minimum of a non-increasing pool sits at the right edge
    ``min(u + W, length − 1)``.  A replica here pays off iff that
    minimum plus one beats ``h(u)``, and its source is the first index
    of the edge's level — the smallest argmin, as the dense scan picks
    it.  That index lies inside the window: ``h(u)`` exceeds the level's
    value, so ``u`` comes before the level starts.
    """
    vp, tp, lp = pool
    edge = u + W
    if edge > lp - 1:
        edge = lp - 1
    if edge <= u:
        return -1
    pv = value_at(pool, edge)
    if pv is None:
        return -1
    i = pv - vp
    # h(u) ≤ pv + 1 iff u reaches the threshold of value pv + 1.
    if tp[i + 1 if i + 1 < len(tp) else -1] <= u:
        return -1
    return tp[i]


# ----------------------------------------------------------------------
# Fold helpers for the greedy solvers.
# ----------------------------------------------------------------------


def stable_argsort(keys: Sequence) -> List[int]:
    """Indices that stably sort ``keys`` ascending.

    Equal keys keep their input order — the tie-break every greedy fold
    in this repository relies on.
    """
    return sorted(range(len(keys)), key=keys.__getitem__)


def prefix_fit(demands: Sequence[int], W: int) -> int:
    """Longest prefix of ``demands`` whose sum fits a server.

    Returns the first index ``k`` with ``demands[0] + … + demands[k] >
    W`` (``len(demands)`` if the whole list fits) — the packing scan of
    Algorithm 2: ``demands[:k]`` are packed, ``demands[k]`` is the
    overflow entry.
    """
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
    acc = 0
    for k, w in enumerate(weights):
        if acc + w > W:
            return k, W - acc
        acc += w
    return len(weights), 0
