"""Differential kernel-conformance suite: one contract, every backend.

The vectorized kernels of :mod:`repro.core.kernels` and the batched
array program of :mod:`repro.algorithms.batched` are pure performance
work: by contract they change **nothing** observable.  This suite pins
that contract from three directions:

* **Dense backends** — the NumPy and pure-Python implementations of the
  monotone min-plus convolution and the absorb-window step are
  bit-identical to each other *and* to the general quadratic kernel /
  the original object-graph scan — costs **and** argmin tie-breaks —
  over randomized monotone step functions and a fixed adversarial edge
  set (empty, singleton, all-``inf``, all-equal ties, saturating
  windows, ``inf``-prefix tables).
* **Threshold form** — ``table_to_thresholds``/``thresholds_to_table``
  round-trip, and the batched threshold kernels
  (``batch_leaf_thresholds``, ``batch_min_plus_t``, ``batch_absorb_t``)
  match the dense kernels element-for-element across whole batches,
  including the widened top column a table only reaches by absorbing.
* **Solvers** — ``solve_many(batch)`` equals
  ``[multiple_nod_dp(x) for x in batch]`` equals the preserved
  object-graph reference, for mixed-shape batches, delegated instances
  (wrong policy, distance-constrained) and per-instance failures, with
  and without ``return_exceptions``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Policy, ProblemInstance, TreeBuilder
from repro.algorithms.batched import solve_many
from repro.algorithms.multiple_nod_dp import multiple_nod_dp
from repro.algorithms.reference import multiple_nod_dp_reference
from repro.core import kernels
from repro.core.errors import PolicyError
from repro.core.kernels import (
    SENTINEL,
    _absorb_step_py,
    _min_plus_mono_py,
    absorb_step,
    capacity_split,
    leaf_table,
    min_plus,
    min_plus_mono,
    prefix_fit,
    stable_argsort,
    table_to_thresholds,
    thresholds_to_table,
)
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


def _naive_absorb(pool, u_cap, W, can_host=True):
    """The original object-graph absorb scan, verbatim (the oracle)."""
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


# ----------------------------------------------------------------------
# Dense backends: NumPy == pure Python == quadratic reference.
# ----------------------------------------------------------------------
@settings(**COMMON)
@given(_mono_tables, _mono_tables, st.integers(0, 40))
def test_min_plus_backends_bit_identical(a, b, cap):
    ref = min_plus(a, b, cap)
    assert _min_plus_mono_py(a, b, cap) == ref
    assert kernels._min_plus_mono_numpy(a, b, cap) == ref
    assert min_plus_mono(a, b, cap) == ref


@settings(**COMMON)
@given(_mono_tables, st.integers(0, 30), st.integers(1, 8), st.booleans())
def test_absorb_backends_bit_identical(pool, u_cap, W, can_host):
    ref = _naive_absorb(pool, u_cap, W, can_host)
    assert _absorb_step_py(pool, u_cap, W, can_host) == ref
    assert kernels._absorb_step_numpy(pool, u_cap, W, can_host) == ref
    assert absorb_step(pool, u_cap, W, can_host) == ref


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
    ref = min_plus(a, b, cap)
    assert _min_plus_mono_py(a, b, cap) == ref
    assert kernels._min_plus_mono_numpy(a, b, cap) == ref


@pytest.mark.parametrize("pool", _EDGE_TABLES)
@pytest.mark.parametrize(
    "u_cap,W",
    [(0, 1), (4, 1), (2, 100), (10, 3)],  # incl. saturating windows
)
@pytest.mark.parametrize("can_host", [True, False])
def test_absorb_edge_cases(pool, u_cap, W, can_host):
    ref = _naive_absorb(pool, u_cap, W, can_host)
    assert _absorb_step_py(pool, u_cap, W, can_host) == ref
    assert kernels._absorb_step_numpy(pool, u_cap, W, can_host) == ref


# ----------------------------------------------------------------------
# Threshold form: conversions round-trip, batch kernels match dense.
# ----------------------------------------------------------------------
def _n_values(table) -> int:
    finite = [int(v) for v in table if v != _INF]
    return max(finite) + 1 if finite else 1


@settings(**COMMON)
@given(_mono_tables)
def test_threshold_round_trip(table):
    t = table_to_thresholds(table, _n_values(table))
    assert thresholds_to_table(t, len(table)) == table
    # Thresholds are non-increasing over the value axis.
    assert all(t[v] >= t[v + 1] for v in range(len(t) - 1))


@pytest.mark.parametrize("table", [[], [_INF], [_INF, _INF]])
def test_threshold_round_trip_unreachable(table):
    t = table_to_thresholds(table, 3)
    assert t == [SENTINEL] * 3
    assert thresholds_to_table(t, len(table)) == [_INF] * len(table)


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
    rs = [r for r, _c in rs_caps]
    caps = [c for _r, c in rs_caps]
    t = kernels.batch_leaf_thresholds(np.array(rs), np.array(caps), W)
    for i, (r, u_cap) in enumerate(rs_caps):
        assert t[i].tolist() == table_to_thresholds(leaf_table(r, u_cap, W), 2)


@settings(**COMMON)
@given(
    st.lists(
        st.tuples(_mono_tables, _mono_tables, st.integers(0, 30)),
        min_size=1,
        max_size=5,
    )
)
def test_batch_min_plus_matches_dense(cases):
    va = max(_n_values(a) for a, _b, _c in cases)
    vb = max(_n_values(b) for _a, b, _c in cases)
    ta = np.array(
        [table_to_thresholds(a, va) for a, _b, _c in cases], dtype=np.int32
    )
    tb = np.array(
        [table_to_thresholds(b, vb) for _a, b, _c in cases], dtype=np.int32
    )
    len_a = np.array([len(a) for a, _b, _c in cases], dtype=np.int64)
    len_b = np.array([len(b) for _a, b, _c in cases], dtype=np.int64)
    cap = np.array([c for _a, _b, c in cases], dtype=np.int64)
    t_out, len_out = kernels.batch_min_plus_t(ta, len_a, tb, len_b, cap)
    for i, (a, b, c) in enumerate(cases):
        dense, _arg = min_plus(a, b, c)
        assert int(len_out[i]) == len(dense)
        assert t_out[i].tolist() == table_to_thresholds(dense, va + vb - 1)


@st.composite
def _pools_with_caps(draw):
    """Pools with in-range caps: ``u_cap ≤ len(pool) − 1``, the DP's
    invariant — a larger cap would append an ``inf`` *suffix* to the
    dense table, which the (monotone) threshold form cannot encode and
    the forward pass never produces."""
    out = []
    for _ in range(draw(st.integers(1, 5))):
        pool = draw(_mono_tables)
        out.append((pool, draw(st.integers(0, len(pool) - 1))))
    return out


@settings(**COMMON)
@given(_pools_with_caps(), st.integers(1, 8))
def test_batch_absorb_matches_dense(pools_caps, W):
    vp = max(_n_values(pool) for pool, _c in pools_caps)
    t_pool = np.array(
        [table_to_thresholds(pool, vp) for pool, _c in pools_caps],
        dtype=np.int32,
    )
    len_pool = np.array([len(p) for p, _c in pools_caps], dtype=np.int64)
    u_cap = np.array([c for _p, c in pools_caps], dtype=np.int64)
    t_tab, len_tab = kernels.batch_absorb_t(t_pool, len_pool, u_cap, W)
    for i, (pool, c) in enumerate(pools_caps):
        dense, _chose = _absorb_step_py(pool, c, W)
        assert int(len_tab[i]) == len(dense)
        assert t_tab[i].tolist() == table_to_thresholds(dense, vp + 1)


def test_batch_absorb_top_column_inherits_pool():
    """The widened top value must inherit the pool's last threshold.

    Pool ``[0]`` with an empty absorb window (no valid absorb source):
    the table still reaches value 1 at ``u = 0`` — a table at value 0
    is also at value ≤ 1 — so ``T[1] = 0``.  A kernel deriving the new
    top column from the absorb candidates alone would report it
    unreachable (``SENTINEL``) and poison every convolution stacked on
    top.
    """
    t_pool = np.array([[0]], dtype=np.int32)       # pool [0.0]
    t_tab, len_tab = kernels.batch_absorb_t(
        t_pool, np.array([1]), np.array([0]), 2
    )
    assert t_tab[0].tolist() == [0, 0]
    assert int(len_tab[0]) == 1
    dense, _chose = _absorb_step_py([0.0], 0, 2)
    assert table_to_thresholds(dense, 2) == [0, 0]


# ----------------------------------------------------------------------
# Fold helpers: the NumPy paths equal the Python paths on the same input.
# ----------------------------------------------------------------------
@settings(**COMMON)
@given(st.lists(st.integers(0, 9), max_size=40), st.integers(1, 30))
def test_fold_helpers_backend_identical(values, W):
    original = kernels.NUMPY_MIN_LEN
    try:
        kernels.NUMPY_MIN_LEN = 10 ** 9          # force pure Python
        py = (
            stable_argsort(values),
            prefix_fit(values, W),
            capacity_split(values, W),
        )
        kernels.NUMPY_MIN_LEN = 0                # force NumPy
        np_ = (
            stable_argsort(values),
            prefix_fit(values, W),
            capacity_split(values, W),
        )
    finally:
        kernels.NUMPY_MIN_LEN = original
    assert py == np_


# ----------------------------------------------------------------------
# solve_many == a sequential loop, bit for bit.
# ----------------------------------------------------------------------
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
    got = solve_many(batch)
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
    with pytest.raises(PolicyError) as batched_err:
        solve_many(batch)
    with pytest.raises(PolicyError) as seq_err:
        multiple_nod_dp(batch[1])
    assert str(batched_err.value) == str(seq_err.value)


def test_solve_many_return_exceptions_interleaves_failures():
    feasible = [_chain_instance(3), _chain_instance(4)]
    infeasible = _chain_instance(15)
    constrained = replace(_chain_instance(2), dmax=1.5)
    batch = [feasible[0], infeasible, constrained, feasible[1]]
    got = solve_many(batch, return_exceptions=True)
    assert got[0] == multiple_nod_dp(feasible[0])
    assert got[3] == multiple_nod_dp(feasible[1])
    for idx in (1, 2):
        assert isinstance(got[idx], PolicyError)
        with pytest.raises(PolicyError) as err:
            multiple_nod_dp(batch[idx])
        assert str(got[idx]) == str(err.value)


def test_solve_many_mixed_shape_buckets():
    """Two shape buckets in one call, shuffled, both on the array path."""
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
    assert solve_many(batch) == [multiple_nod_dp(inst) for inst in batch]


def test_solve_many_empty_and_singleton():
    assert solve_many([]) == []
    inst = _chain_instance(3)
    assert solve_many([inst]) == [multiple_nod_dp(inst)]
