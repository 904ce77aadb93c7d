"""Differential kernel-conformance suite: threshold rows vs dense tables.

The Multiple-NoD DP stores every table as a threshold row
``(v0, T, length)`` (:mod:`repro.core.kernels`).  By contract the row
kernels change **nothing** observable against the dense formulation the
object-graph reference computes.  This suite pins that contract:

* **Kernels** — the leaf row, the min-plus convolution and the absorb
  step equal the quadratic dense kernels, and the reconstruction probes
  (``value_at``, ``conv_arg``, ``absorb_arg``) return the dense argmins
  with their tie-breaks (smallest split, absorb from the first index of
  the window minimum's level) — over randomized monotone step tables and
  a fixed edge set (empty, singleton, all-``inf``, flat-level ties,
  saturating windows, ``inf``-prefix tables, ``can_host=False``).
* **Row length** — no stored row is longer than the dense table it
  replaces, on wide, deep and random trees.
* **Solvers** — ``PlacementService.solve_many`` equals a sequential
  loop of ``multiple_nod_dp`` equals the preserved object-graph
  reference, including per-instance failures.

The dense references and the row ↔ table conversions live here and are
shared with ``tests/test_arrays.py`` and
``tests/test_properties_extended.py``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Policy, ProblemInstance, TreeBuilder
from repro.algorithms.multiple_nod_dp import fold, multiple_nod_dp
from repro.algorithms.reference import multiple_nod_dp_reference
from repro.core.arrays import flat_tree
from repro.core.errors import InfeasibleInstanceError
from repro.core.kernels import (
    ZERO_ROW,
    absorb,
    absorb_arg,
    capacity_split,
    conv_arg,
    leaf_row,
    min_plus,
    prefix_fit,
    stable_argsort,
    value_at,
)
from repro.instances import broom, caterpillar, star
from repro.service import PlacementService, SolveRequest
from tests.conftest import tree_instances

COMMON = dict(
    deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=60
)
# Solver-level properties run whole DPs per example; fewer examples.
SOLVER = dict(
    deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=25
)

_INF = float("inf")


# ----------------------------------------------------------------------
# Dense references and row <-> table conversions.
# ----------------------------------------------------------------------
def row_from_table(table):
    """The threshold row of a dense non-increasing table."""
    finite = [int(v) for v in table if v != _INF]
    if not finite:
        return (0, [], len(table))
    v0 = min(finite)
    t = [
        min(u for u, v in enumerate(table) if v <= v0 + i)
        for i in range(max(finite) - v0 + 1)
    ]
    while len(t) > 1 and t[-1] == t[-2]:
        t.pop()
    return (v0, t, len(table))


def table_from_row(row, length=None):
    """The dense table of a row, padded with ``inf`` to ``length``."""
    v0, t, n = row
    out = [_INF] * (n if length is None else length)
    for u in range(min(n, len(out))):
        for i, x in enumerate(t):
            if x <= u:
                out[u] = float(v0 + i)
                break
    return out


def assert_normalised(row):
    """Non-increasing, no trailing duplicate, every threshold covered."""
    _v0, t, length = row
    assert all(t[i] >= t[i + 1] for i in range(len(t) - 1))
    assert len(t) < 2 or t[-1] != t[-2]
    assert all(0 <= x < length for x in t)


def dense_min_plus(a, b, cap):
    """The general quadratic min-plus kernel; ties go to the smallest
    split, ``-1`` marks an infeasible entry."""
    n = min(len(a) + len(b) - 1, cap + 1)
    out = [_INF] * max(n, 0)
    arg = [-1] * max(n, 0)
    for j, aj in enumerate(a):
        if aj == _INF or j >= n:
            continue
        for k in range(min(len(b), n - j)):
            val = aj + b[k]
            if val < out[j + k]:
                out[j + k] = val
                arg[j + k] = j
    return out, arg


def dense_absorb(pool, u_cap, W, can_host=True):
    """The original object-graph absorb scan, verbatim."""
    table = [_INF] * (u_cap + 1)
    chose = [-1] * (u_cap + 1)
    for u in range(u_cap + 1):
        if u < len(pool):
            table[u] = pool[u]
        if not can_host:
            continue
        hi = min(u + W, len(pool) - 1)
        for U in range(u + 1, hi + 1):
            val = pool[U] + 1.0
            if val < table[u]:
                table[u] = val
                chose[u] = U
    return table, chose


def dense_leaf(r, u_cap, W, can_host=True):
    return [
        0.0 if u >= r else 1.0 if can_host and r - u <= W else _INF
        for u in range(u_cap + 1)
    ]


def check_min_plus(a, b, cap):
    """Row min-plus and its split probe equal the quadratic kernel."""
    out, arg = dense_min_plus(a, b, cap)
    ra, rb = row_from_table(a), row_from_table(b)
    row = min_plus(ra, rb, cap)
    assert_normalised(row)
    assert table_from_row(row) == out
    splits = [
        -1 if v == _INF else conv_arg(ra, rb, U, int(v))
        for U, v in enumerate(out)
    ]
    assert splits == arg


def check_absorb(pool, u_cap, W, can_host):
    """Row absorb and its source probe equal the quadratic scan."""
    table, chose = dense_absorb(pool, u_cap, W, can_host)
    rp = row_from_table(pool)
    row = absorb(rp, u_cap, W, can_host)
    assert_normalised(row)
    assert table_from_row(row, u_cap + 1) == table
    sources = [
        absorb_arg(rp, u, W) if can_host else -1 for u in range(u_cap + 1)
    ]
    assert sources == chose


# ----------------------------------------------------------------------
# Strategies: non-increasing step functions with an optional inf prefix
# (the exact invariant every DP table satisfies).
# ----------------------------------------------------------------------
def _build_mono(parts):
    inf_prefix, widths = parts
    table = [_INF] * inf_prefix
    value = float(len(widths))
    for width in widths:
        value -= 1.0
        table.extend([value] * width)
    return table


_mono_tables = st.tuples(
    st.integers(0, 3),
    st.lists(st.integers(1, 4), min_size=1, max_size=5),
).map(_build_mono)


# ----------------------------------------------------------------------
# Kernels: the threshold form and the dense form are bit-identical.
# ----------------------------------------------------------------------
@settings(**COMMON)
@given(_mono_tables, _mono_tables, st.integers(0, 40))
def test_min_plus_backends_bit_identical(a, b, cap):
    check_min_plus(a, b, cap)


@settings(**COMMON)
@given(_mono_tables, st.integers(0, 30), st.integers(1, 8), st.booleans())
def test_absorb_backends_bit_identical(pool, u_cap, W, can_host):
    check_absorb(pool, u_cap, W, can_host)


# Adversarial step functions: the shapes randomized generation rarely
# hits but the DPs produce at the margins.
_EDGE_TABLES = [
    [],
    [0.0],
    [_INF],
    [_INF, _INF, _INF],
    [2.0, 2.0, 2.0, 2.0],          # one flat level: every split ties
    [_INF, _INF, 3.0, 3.0, 1.0, 0.0],
    [5.0, 4.0, 3.0, 2.0, 1.0, 0.0],  # strictly decreasing: no ties
    [1.0, 1.0, 0.0],
]


@pytest.mark.parametrize("a", _EDGE_TABLES)
@pytest.mark.parametrize("b", _EDGE_TABLES)
@pytest.mark.parametrize("cap", [0, 3, 100])
def test_min_plus_edge_cases(a, b, cap):
    check_min_plus(a, b, cap)


@pytest.mark.parametrize("pool", _EDGE_TABLES)
@pytest.mark.parametrize(
    "u_cap,W",
    [(0, 1), (4, 1), (2, 100), (10, 3)],  # incl. saturating windows
)
@pytest.mark.parametrize("can_host", [True, False])
def test_absorb_edge_cases(pool, u_cap, W, can_host):
    check_absorb(pool, u_cap, W, can_host)


@settings(**COMMON)
@given(_mono_tables)
def test_threshold_round_trip(table):
    row = row_from_table(table)
    assert_normalised(row)
    assert table_from_row(row) == table
    assert len(row[1]) <= len(table)


@pytest.mark.parametrize("table", [[], [_INF], [_INF, _INF]])
def test_threshold_round_trip_unreachable(table):
    row = row_from_table(table)
    assert row[1] == [] and row[2] == len(table)
    assert table_from_row(row) == [_INF] * len(table)
    assert value_at(row, 0) is None


@settings(**COMMON)
@given(_mono_tables)
def test_value_at_matches_dense(table):
    row = row_from_table(table)
    for u in range(len(table) + 2):
        dense = table[u] if u < len(table) else _INF
        assert value_at(row, u) == (None if dense == _INF else int(dense))


@settings(**COMMON)
@given(
    st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 15)),
        min_size=1,
        max_size=6,
    ),
    st.integers(1, 8),
)
def test_batch_leaf_thresholds_match_dense(rs_caps, W):
    """Leaf rows, hosting or failed, for a batch of (r, u_cap) pairs."""
    for r, u_cap in rs_caps:
        for can_host in (True, False):
            row = leaf_row(r, u_cap, W, can_host)
            assert_normalised(row)
            assert table_from_row(row) == dense_leaf(r, u_cap, W, can_host)


@settings(**COMMON)
@given(st.lists(_mono_tables, min_size=1, max_size=5), st.integers(0, 30))
def test_batch_min_plus_matches_dense(children, cap):
    """A batch of child tables folds into one pool and unwinds from it
    exactly as the dense DP does: every reachable pool amount splits
    across the children like the dense argmins, last child first."""
    pool, dense = ZERO_ROW, [0.0]
    before, dense_args = [], []
    for a in children:
        before.append(pool)
        dense, arg = dense_min_plus(a, dense, cap)
        dense_args.append(arg)
        pool = min_plus(row_from_table(a), pool, cap)
        assert table_from_row(pool) == dense
    for U, v in enumerate(dense):
        if v == _INF:
            continue
        value, rest = int(v), U
        for k in range(len(children) - 1, -1, -1):
            j = conv_arg(row_from_table(children[k]), before[k], rest, value)
            assert j == dense_args[k][rest]
            rest -= j
            value = value_at(before[k], rest)
        assert rest == 0


@st.composite
def _pools_with_caps(draw):
    """Pools with in-range caps: ``u_cap ≤ len(pool) − 1``, the DP's
    invariant (its pool always covers the node's forward cap)."""
    out = []
    for _ in range(draw(st.integers(1, 5))):
        pool = draw(_mono_tables)
        out.append((pool, draw(st.integers(0, len(pool) - 1))))
    return out


@settings(**COMMON)
@given(_pools_with_caps(), st.integers(1, 8))
def test_batch_absorb_matches_dense(pools_caps, W):
    """A batch of DP-shaped pools: the absorbed row covers exactly
    ``u_cap + 1`` amounts and is never longer than that."""
    for pool, u_cap in pools_caps:
        check_absorb(pool, u_cap, W, True)
        row = absorb(row_from_table(pool), u_cap, W)
        assert row[2] == u_cap + 1
        assert len(row[1]) <= u_cap + 1


def test_batch_absorb_top_column_inherits_pool():
    """The absorbed row gains the value one above the pool's top.

    Pool ``[inf, inf, inf, 0]`` reaches only value 0, at ``u = 3``; a
    replica absorbing up to ``W = 2`` reaches value 1 from ``u = 1``.
    A kernel that only lowers the pool's existing thresholds would
    miss that value.  Pool ``[0]`` gains nothing: its new top entry
    equals the last one and is dropped.
    """
    pool = (0, [3], 4)
    assert absorb(pool, 3, 2) == (0, [3, 1], 4)
    assert table_from_row(absorb(pool, 3, 2)) == dense_absorb(
        [_INF, _INF, _INF, 0.0], 3, 2
    )[0]
    assert absorb(ZERO_ROW, 0, 2) == ZERO_ROW


# ----------------------------------------------------------------------
# Fold helpers: the pure-Python scans equal NumPy's formulations.
# ----------------------------------------------------------------------
@settings(**COMMON)
@given(st.lists(st.integers(0, 9), max_size=40), st.integers(1, 30))
def test_fold_helpers_backend_identical(values, W):
    assert stable_argsort(values) == np.argsort(
        np.asarray(values, dtype=np.int64), kind="stable"
    ).tolist()
    c = np.cumsum(np.asarray(values, dtype=np.int64))
    k = int(np.searchsorted(c, W, side="right"))
    assert prefix_fit(values, W) == k
    partial = 0 if k >= len(values) else W - (int(c[k - 1]) if k else 0)
    assert capacity_split(values, W) == (k, partial)


# ----------------------------------------------------------------------
# Row length: never longer than the dense table it replaces.
# ----------------------------------------------------------------------
def assert_rows_bounded(inst):
    """Every stored row — node rows and the pools reconstruction keeps —
    has at most ``length`` entries, and node rows cover ``u_cap + 1``."""
    ft = flat_tree(inst.tree)
    W = inst.capacity
    folds = [None] * ft.n
    fold(ft, W, folds, range(ft.n))
    for p, (row, before, pool) in enumerate(folds):
        assert row[2] == min(ft.subtree_demand[p], W * ft.depth[p]) + 1
        stored = [row]
        if before is not None:
            stored += [pool] + [prior for _c, prior in before]
        for r in stored:
            assert len(r[1]) <= r[2]


def test_wide_star_matches_reference_with_short_rows():
    """4000 leaves under one root: the root pool starts near value
    3990, so a row anchored at value 0 would hold ~4000 entries
    against a table of 11."""
    inst = star(4000, capacity=10, policy=Policy.MULTIPLE)
    assert multiple_nod_dp(inst) == multiple_nod_dp_reference(inst)
    assert_rows_bounded(inst)


@pytest.mark.parametrize(
    "inst",
    [
        caterpillar(300, capacity=20, policy=Policy.MULTIPLE),
        broom(20, 500, capacity=50, policy=Policy.MULTIPLE),
        star(300, capacity=7, policy=Policy.MULTIPLE, request_range=(1, 12)),
    ],
    ids=["caterpillar", "broom", "star-oversized"],
)
def test_rows_never_outgrow_dense_tables(inst):
    assert_rows_bounded(inst)


@settings(**SOLVER)
@given(tree_instances(with_dmax=False))
def test_rows_never_outgrow_dense_tables_random(inst):
    assert_rows_bounded(inst.with_policy(Policy.MULTIPLE))


# ----------------------------------------------------------------------
# solve_many == a sequential loop == the reference, bit for bit.
# ----------------------------------------------------------------------
def _solve_many(instances):
    with PlacementService(cache_size=0) as svc:
        return svc.solve_many(
            [SolveRequest(instance=i, solver="multiple-nod-dp") for i in instances]
        )


@st.composite
def dp_batches(draw):
    """A batch mixing same-shape request variants with a foreign shape."""
    base = draw(tree_instances(with_dmax=False)).with_policy(Policy.MULTIPLE)
    tree = base.tree
    batch = []
    for _ in range(draw(st.integers(2, 4))):
        reqs = [
            draw(st.integers(0, base.capacity)) if tree.is_leaf(v) else 0
            for v in range(len(tree))
        ]
        batch.append(replace(base, tree=tree.with_requests(reqs)))
    other = draw(tree_instances(with_dmax=False)).with_policy(Policy.MULTIPLE)
    batch.insert(draw(st.integers(0, len(batch))), other)
    return batch


@settings(**SOLVER)
@given(dp_batches())
def test_solve_many_matches_sequential_and_reference(batch):
    got = [r.placement for r in _solve_many(batch)]
    assert got == [multiple_nod_dp(inst) for inst in batch]
    assert got == [multiple_nod_dp_reference(inst) for inst in batch]


def _chain_instance(requests: int) -> ProblemInstance:
    """root — relay — one client; W=4, so r=15 is NoD-infeasible."""
    b = TreeBuilder()
    n0 = b.add_root()
    n1 = b.add(n0, delta=1.0)
    b.add(n1, delta=1.0, requests=requests)
    return ProblemInstance(b.build(), 4, None, Policy.MULTIPLE)


def test_solve_many_surfaces_the_sequential_exception():
    batch = [_chain_instance(3), _chain_instance(15), _chain_instance(4)]
    with pytest.raises(InfeasibleInstanceError) as seq_err:
        multiple_nod_dp(batch[1])
    got = _solve_many(batch)
    assert [r.status for r in got] == ["ok", "infeasible", "ok"]
    assert got[1].error.message == (
        f"InfeasibleInstanceError: {seq_err.value}"
    )


def test_solve_many_return_exceptions_interleaves_failures():
    feasible = [_chain_instance(3), _chain_instance(4)]
    infeasible = _chain_instance(15)
    constrained = replace(_chain_instance(2), dmax=1.5)
    got = _solve_many([feasible[0], infeasible, constrained, feasible[1]])
    assert [r.status for r in got] == ["ok", "infeasible", "inapplicable", "ok"]
    assert got[0].placement == multiple_nod_dp(feasible[0])
    assert got[3].placement == multiple_nod_dp(feasible[1])


def test_solve_many_mixed_shape_buckets():
    """Two tree shapes in one call, shuffled."""
    small = _chain_instance(3)
    wide = TreeBuilder()
    n0 = wide.add_root()
    for r in (2, 3, 4):
        wide.add(n0, delta=1.0, requests=r)
    wide_inst = ProblemInstance(wide.build(), 4, None, Policy.MULTIPLE)
    batch = [
        small,
        wide_inst,
        replace(small, tree=small.tree.with_requests([0, 0, 4])),
        replace(wide_inst, tree=wide_inst.tree.with_requests([0, 4, 1, 2])),
        small,
    ]
    got = [r.placement for r in _solve_many(batch)]
    assert got == [multiple_nod_dp(inst) for inst in batch]


def test_solve_many_empty_and_singleton():
    assert _solve_many([]) == []
    inst = _chain_instance(3)
    assert [r.placement for r in _solve_many([inst])] == [multiple_nod_dp(inst)]
