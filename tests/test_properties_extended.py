"""Property-based tests for the extension modules.

Hypothesis strategies reuse the shared tree generator from
:mod:`tests.conftest` and add invariants for the Multiple-NoD
DP, preprocessing, failure repair and the future-work heuristics.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    Policy,
    is_valid,
    multiple_bin,
    multiple_nod_dp,
    single_nod,
    single_nod_bestfit,
    single_push,
)
from repro.core import preprocess
from repro.core.kernels import conv_arg, min_plus
from repro.dynamic import repair_placement

from tests.conftest import tree_instances
from tests.test_kernel_conformance import row_from_table, table_from_row

COMMON = dict(
    deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=40
)


@settings(**COMMON)
@given(tree_instances(binary=True, with_dmax=False))
def test_dp_matches_multiple_bin_on_binary_nod(inst):
    """Two independent optimal algorithms must agree on Multiple-NoD-Bin
    whenever every client fits a server."""
    inst = inst.with_policy(Policy.MULTIPLE)
    dp = multiple_nod_dp(inst)
    assert is_valid(inst, dp)
    if inst.tree.max_request <= inst.capacity:
        mb = multiple_bin(inst)
        assert dp.n_replicas == mb.n_replicas


@settings(**COMMON)
@given(tree_instances(with_dmax=False))
def test_dp_valid_and_lower_bounded_any_arity(inst):
    from repro import lower_bound

    inst = inst.with_policy(Policy.MULTIPLE)
    dp = multiple_nod_dp(inst)
    assert is_valid(inst, dp)
    assert dp.n_replicas >= lower_bound(inst)


@settings(**COMMON)
@given(tree_instances())
def test_preprocess_lift_always_valid(inst):
    reduced, nmap = preprocess(inst)
    assert len(reduced.tree) <= len(inst.tree)
    assert reduced.tree.total_requests == inst.tree.total_requests
    from repro import single_gen

    p = single_gen(reduced)
    lifted = nmap.lift(p)
    assert is_valid(inst, lifted)
    assert lifted.n_replicas == p.n_replicas


@settings(**COMMON)
@given(tree_instances(), st.integers(0, 3))
def test_repair_is_valid_or_none(inst, k):
    from repro import single_gen

    p = single_gen(inst)
    replicas = sorted(p.replicas)
    if not replicas:
        return
    victims = replicas[: min(k, len(replicas))]
    res = repair_placement(inst, p, victims)
    if res is not None:
        assert is_valid(inst, res.placement)
        assert not set(victims) & set(res.placement.replicas)
        assert res.moved_requests >= 0


@settings(**COMMON)
@given(tree_instances(with_dmax=False))
def test_push_never_worse_and_valid(inst):
    base = single_nod(inst)
    push = single_push(inst)
    assert is_valid(inst, push)
    assert push.n_replicas <= base.n_replicas
    bf = single_nod_bestfit(inst)
    assert is_valid(inst, bf)


@settings(**COMMON)
@given(
    st.lists(st.integers(0, 6), min_size=1, max_size=6),
    st.lists(st.integers(0, 6), min_size=1, max_size=6),
    st.integers(1, 12),
)
def test_min_plus_convolution_correct(a_costs, b_costs, cap):
    """Brute-force check of the DP's min-plus convolution kernel on
    non-increasing tables (the shape of every DP table)."""
    a = [float(x) for x in sorted(a_costs, reverse=True)]
    b = [float(x) for x in sorted(b_costs, reverse=True)]
    ra, rb = row_from_table(a), row_from_table(b)
    out = table_from_row(min_plus(ra, rb, cap))
    assert len(out) == min(len(a) + len(b) - 1, cap + 1)
    for U in range(len(out)):
        brute = min(
            (
                a[j] + b[U - j]
                for j in range(len(a))
                if 0 <= U - j < len(b)
            ),
            default=float("inf"),
        )
        assert out[U] == brute
        if out[U] != float("inf"):
            j = conv_arg(ra, rb, U, int(out[U]))
            assert j >= 0
            assert a[j] + b[U - j] == out[U]
