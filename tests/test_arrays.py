"""FlatTree invariants and flat-path ↔ object-path solver equivalence.

Two layers of guarantees:

* **Round-trip** — ``FlatTree`` is a lossless recompilation of
  ``Tree``: every per-node field survives the renumbering, subtree
  spans are exact, and ``to_tree()`` rebuilds the original tree.
* **Bit-identity** — the solvers rewritten onto the flat substrate
  (``multiple-nod-dp``, ``single-nod``, ``multiple-greedy``) return
  *exactly* the placements of their preserved object-graph references
  (:mod:`repro.algorithms.reference`) over the randomized
  ``tree_instances`` strategy — same replica sets, same assignments,
  tie-breaking included.  The DP's threshold-row kernels are
  additionally checked against the general quadratic kernels on
  monotone inputs.
"""

from __future__ import annotations

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import Policy, Tree, TreeBuilder
from repro.algorithms.greedy import multiple_greedy
from repro.algorithms.multiple_nod_dp import multiple_nod_dp
from repro.algorithms.reference import (
    multiple_greedy_reference,
    multiple_nod_dp_reference,
    single_nod_reference,
)
from repro.algorithms.single_nod import single_nod
from repro.core.arrays import flat_cache_stats, flat_tree
from repro.core.kernels import absorb
from repro.instances import random_tree
from tests.conftest import tree_instances
from tests.test_kernel_conformance import (
    check_absorb,
    check_min_plus,
    row_from_table,
    table_from_row,
)

COMMON = dict(
    deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=60
)

_INF = float("inf")


# ----------------------------------------------------------------------
# FlatTree round-trip and layout invariants
# ----------------------------------------------------------------------
@settings(**COMMON)
@given(tree_instances())
def test_flat_tree_round_trips(inst):
    tree = inst.tree
    ft = flat_tree(tree)
    assert ft.to_tree() == tree


@settings(**COMMON)
@given(tree_instances())
def test_flat_tree_fields_match_tree(inst):
    tree = inst.tree
    ft = flat_tree(tree)
    n = len(tree)
    assert ft.n == n and len(ft) == n
    assert sorted(ft.post_to_orig) == list(range(n))
    for p in range(n):
        v = ft.post_to_orig[p]
        assert ft.orig_to_post[v] == p
        assert ft.demand[p] == tree.requests(v)
        assert ft.delta[p] == tree.delta(v)
        assert ft.is_leaf(p) == tree.is_leaf(v)
        # Children order is the tree's child order.
        kids = [ft.post_to_orig[c] for c in ft.children(p)]
        assert kids == list(tree.children(v))
        # Parent pointers agree, and post-order puts parents after
        # children.
        if v == tree.root:
            assert ft.parent[p] == -1 and p == ft.root
        else:
            assert ft.post_to_orig[ft.parent[p]] == tree.parent(v)
            assert ft.parent[p] > p
        # Ancestor-count depth.
        assert ft.depth[p] == len(tree.path_to_root(v)) - 1


@settings(**COMMON)
@given(tree_instances())
def test_flat_tree_subtree_spans(inst):
    tree = inst.tree
    ft = flat_tree(tree)
    for p in range(ft.n):
        v = ft.post_to_orig[p]
        span = {ft.post_to_orig[q] for q in ft.subtree_span(p)}
        assert span == set(tree.subtree(v))
        assert ft.subtree_demand[p] == sum(
            tree.requests(u) for u in tree.subtree(v)
        )


@settings(**COMMON)
@given(tree_instances(), st.data())
def test_derived_layout_equals_a_compile(inst, data):
    """A demand copy's derived layout matches compiling the copy, on
    both sides of the whole-array switch."""
    from repro.core.arrays import FlatTree

    tree = inst.tree
    source = flat_tree(tree)
    clients = list(tree.clients)
    picked = data.draw(st.lists(st.sampled_from(clients), unique=True))
    levels = {c: data.draw(st.integers(0, 9)) for c in picked}
    copy = tree.with_demands(levels)
    derived = flat_tree(copy)
    compiled = FlatTree(copy)
    for name in (
        "post_to_orig", "parent", "first_child", "next_sibling", "delta",
        "demand", "depth", "subtree_begin", "subtree_demand",
    ):
        assert getattr(derived, name) == getattr(compiled, name), name
    assert derived.source == source.serial
    changed = {source.orig_to_post[c] for c in picked
               if levels[c] != tree.requests(c)}
    assert set(derived.changed) == changed
    closure = set()
    for p in changed:
        while p >= 0:
            closure.add(p)
            p = source.parent[p]
    assert derived.dirty == sorted(closure)
    # The source layout is untouched.
    assert source.demand == FlatTree(tree).demand
    assert source.subtree_demand == FlatTree(tree).subtree_demand


def test_flat_tree_is_cached_per_tree():
    b = TreeBuilder()
    r = b.add_root()
    b.add(r, delta=1.0, requests=3)
    tree = b.build()
    before = flat_cache_stats()
    ft1 = flat_tree(tree)
    ft2 = flat_tree(tree)
    after = flat_cache_stats()
    assert ft1 is ft2
    assert after["compiles"] == before["compiles"] + 1
    assert after["hits"] >= before["hits"] + 1
    # A structurally equal but distinct tree compiles its own layout.
    other = Tree([-1, 0], [0.0, 1.0], [0, 3])
    assert flat_tree(other) is not ft1


# ----------------------------------------------------------------------
# Threshold-row DP kernels vs the general quadratic kernels
# ----------------------------------------------------------------------
def _monotone_tables(draw_counts):
    """Build a non-increasing table with an optional infinite prefix."""
    inf_prefix, steps = draw_counts
    table = [_INF] * inf_prefix
    value = float(len(steps) + 1)
    for width in steps:
        value -= 1.0
        table.extend([value] * width)
    return table


_mono_tables = st.tuples(
    st.integers(0, 3),
    st.lists(st.integers(1, 4), min_size=1, max_size=5),
).map(_monotone_tables)


@settings(**COMMON)
@given(_mono_tables, _mono_tables, st.integers(1, 40))
def test_min_plus_mono_equals_general_kernel(a, b, cap):
    check_min_plus(a, b, cap)


@settings(**COMMON)
@given(_mono_tables, st.integers(0, 30), st.integers(1, 8))
def test_absorb_step_equals_quadratic_scan(pool, u_cap, W):
    check_absorb(pool, u_cap, W, True)


def test_absorb_step_forbidden_host_truncates_pool():
    row = absorb(row_from_table([3.0, 2.0, 1.0]), 4, W=2, can_host=False)
    assert table_from_row(row, 5) == [3.0, 2.0, 1.0, _INF, _INF]


# ----------------------------------------------------------------------
# Flat-path solvers are bit-identical to the object-graph references
# ----------------------------------------------------------------------
#: Two children both hand leftovers up to one node here, so the inbox
#: order of leftovers decides the packing; the random strategy rarely
#: draws such a tree.
LEFTOVER_ORDER = random_tree(4, 8, capacity=6, dmax=None, max_arity=3, seed=18)


@settings(**COMMON)
@given(tree_instances(with_dmax=False))
@example(LEFTOVER_ORDER)
def test_single_nod_matches_reference(inst):
    assert single_nod(inst) == single_nod_reference(inst)


@settings(**COMMON)
@given(tree_instances(with_dmax=False))
def test_multiple_nod_dp_matches_reference(inst):
    multi = inst.with_policy(Policy.MULTIPLE)
    assert multiple_nod_dp(multi) == multiple_nod_dp_reference(multi)


@settings(**COMMON)
@given(tree_instances())
def test_multiple_greedy_matches_reference(inst):
    multi = inst.with_policy(Policy.MULTIPLE)
    assert multiple_greedy(multi) == multiple_greedy_reference(multi)


def test_flat_dp_on_single_node_tree():
    b = TreeBuilder()
    b.add_root()
    tree = b.build()
    from repro import ProblemInstance

    inst = ProblemInstance(tree, 5, None, Policy.MULTIPLE)
    assert multiple_nod_dp(inst) == multiple_nod_dp_reference(inst)
    single = inst.with_policy(Policy.SINGLE)
    assert single_nod(single) == single_nod_reference(single)


def test_flat_tree_compiles_once_per_solver_chain():
    """One tree solved by several flat solvers compiles exactly once."""
    from repro.instances import random_tree

    inst = random_tree(
        6, 12, capacity=10, dmax=None, policy=Policy.MULTIPLE, seed=5
    )
    before = flat_cache_stats()
    multiple_nod_dp(inst)
    multiple_greedy(inst)
    single_nod(inst.with_policy(Policy.SINGLE))
    after = flat_cache_stats()
    assert after["compiles"] == before["compiles"] + 1
    assert after["hits"] >= before["hits"] + 2
