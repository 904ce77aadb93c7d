"""Unit tests for the tree substrate (repro.core.tree)."""

from __future__ import annotations

import math

import pytest

from repro import InvalidTreeError, Tree, TreeBuilder
from repro.core.tree import NO_PARENT


def chain(n: int, delta: float = 1.0, leaf_requests: int = 3) -> Tree:
    parents = [NO_PARENT] + list(range(n - 1))
    deltas = [math.inf] + [delta] * (n - 1)
    requests = [0] * (n - 1) + [leaf_requests]
    return Tree(parents, deltas, requests)


class TestConstruction:
    def test_single_node(self):
        t = Tree([NO_PARENT], [math.inf], [5])
        assert len(t) == 1
        assert t.is_leaf(0)
        assert t.clients == (0,)
        assert t.requests(0) == 5

    def test_simple_chain(self):
        t = chain(4)
        assert t.parent(3) == 2
        assert t.parent(0) == NO_PARENT
        assert t.children(0) == (1,)
        assert t.is_internal(0) and t.is_leaf(3)

    def test_root_delta_is_infinite(self):
        t = chain(3)
        assert math.isinf(t.delta(0))

    def test_root_delta_overridden(self):
        # Whatever value is passed for the root delta, it reads as inf.
        t = Tree([NO_PARENT, 0], [7.0, 2.0], [0, 1])
        assert math.isinf(t.delta(0))
        assert t.delta(1) == 2.0

    def test_rejects_empty(self):
        with pytest.raises(InvalidTreeError):
            Tree([], [], [])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(InvalidTreeError):
            Tree([NO_PARENT, 0], [math.inf], [0, 1])

    def test_rejects_non_root_first_node(self):
        with pytest.raises(InvalidTreeError):
            Tree([0, NO_PARENT], [1.0, math.inf], [1, 0])

    def test_rejects_out_of_range_parent(self):
        with pytest.raises(InvalidTreeError):
            Tree([NO_PARENT, 5], [math.inf, 1.0], [0, 1])

    def test_rejects_self_parent(self):
        with pytest.raises(InvalidTreeError):
            Tree([NO_PARENT, 1], [math.inf, 1.0], [0, 1])

    def test_rejects_cycle(self):
        # 1 -> 2 -> 1 cycle detached from the root.
        with pytest.raises(InvalidTreeError):
            Tree([NO_PARENT, 2, 1], [math.inf, 1.0, 1.0], [0, 0, 0])

    def test_rejects_negative_distance(self):
        with pytest.raises(InvalidTreeError):
            Tree([NO_PARENT, 0], [math.inf, -1.0], [0, 1])

    def test_rejects_nan_distance(self):
        with pytest.raises(InvalidTreeError):
            Tree([NO_PARENT, 0], [math.inf, float("nan")], [0, 1])

    def test_rejects_negative_requests(self):
        with pytest.raises(InvalidTreeError):
            Tree([NO_PARENT, 0], [math.inf, 1.0], [0, -2])

    def test_rejects_internal_requests(self):
        with pytest.raises(InvalidTreeError):
            Tree([NO_PARENT, 0, 1], [math.inf, 1.0, 1.0], [0, 4, 1])

    def test_zero_distance_edge_allowed(self):
        t = Tree([NO_PARENT, 0], [math.inf, 0.0], [0, 1])
        assert t.delta(1) == 0.0


class TestAccessors:
    def test_clients_and_internal_partition(self, paper_example):
        t = paper_example.tree
        assert set(t.clients) | set(t.internal_nodes) == set(range(len(t)))
        assert not set(t.clients) & set(t.internal_nodes)

    def test_arity(self, paper_example):
        assert paper_example.tree.arity == 2
        assert paper_example.tree.is_binary

    def test_arity_wide(self):
        b = TreeBuilder()
        r = b.add_root()
        for _ in range(5):
            b.add(r, requests=1)
        assert b.build().arity == 5

    def test_total_and_max_requests(self, paper_example):
        t = paper_example.tree
        assert t.total_requests == 4 + 3 + 5 + 2
        assert t.max_request == 5

    def test_depth_weighted(self, paper_example):
        t = paper_example.tree
        assert t.depth(0) == 0.0
        # c4 hangs under n1 (delta 1) with edge 2 -> depth 3.
        assert t.depth(4) == pytest.approx(3.0)


class TestTraversals:
    def test_topological_order_parents_first(self):
        t = chain(6)
        order = t.topological_order()
        pos = {v: i for i, v in enumerate(order)}
        for v in range(1, len(t)):
            assert pos[t.parent(v)] < pos[v]

    def test_postorder_children_first(self):
        t = chain(6)
        pos = {v: i for i, v in enumerate(t.postorder())}
        for v in range(1, len(t)):
            assert pos[v] < pos[t.parent(v)]

    def test_subtree(self, paper_example):
        t = paper_example.tree
        assert set(t.subtree(0)) == set(range(len(t)))
        assert set(t.subtree(1)) == {1, 3, 4}

    def test_subtree_clients(self, paper_example):
        t = paper_example.tree
        assert set(t.subtree_clients(2)) == {5, 6}

    def test_path_to_root(self, paper_example):
        t = paper_example.tree
        assert t.path_to_root(3) == [3, 1, 0]
        assert t.path_to_root(0) == [0]

    def test_deep_tree_no_recursion_error(self):
        t = chain(50_000)
        assert len(list(t.postorder())) == 50_000
        assert len(t.subtree(0)) == 50_000
        assert t.depth(49_999) == pytest.approx(49_999.0)


class TestDistances:
    def test_distance_to_ancestor(self, paper_example):
        t = paper_example.tree
        assert t.distance_to_ancestor(4, 1) == pytest.approx(2.0)
        assert t.distance_to_ancestor(4, 0) == pytest.approx(3.0)
        assert t.distance_to_ancestor(4, 4) == 0.0

    def test_distance_to_non_ancestor_raises(self, paper_example):
        t = paper_example.tree
        with pytest.raises(InvalidTreeError):
            t.distance_to_ancestor(4, 2)

    def test_is_ancestor(self, paper_example):
        t = paper_example.tree
        assert t.is_ancestor(0, 4)
        assert t.is_ancestor(4, 4)
        assert not t.is_ancestor(2, 4)
        assert not t.is_ancestor(4, 0)

    def test_eligible_servers_unbounded(self, paper_example):
        t = paper_example.tree
        elig = t.eligible_servers(4, None)
        assert [s for s, _ in elig] == [4, 1, 0]
        assert [d for _, d in elig] == pytest.approx([0.0, 2.0, 3.0])

    def test_eligible_servers_cutoff(self, paper_example):
        t = paper_example.tree
        elig = t.eligible_servers(4, 2.5)
        assert [s for s, _ in elig] == [4, 1]

    def test_eligible_servers_exact_boundary_included(self, paper_example):
        t = paper_example.tree
        elig = t.eligible_servers(4, 3.0)
        assert [s for s, _ in elig] == [4, 1, 0]

    def test_client_always_self_eligible(self, paper_example):
        t = paper_example.tree
        assert t.eligible_servers(4, 0.0)[0] == (4, 0.0)


class TestBuilder:
    def test_build_and_ids(self):
        b = TreeBuilder()
        r = b.add_root()
        a = b.add(r, delta=2.0)
        c = b.add(a, delta=1.0, requests=7)
        t = b.build()
        assert (r, a, c) == (0, 1, 2)
        assert t.requests(c) == 7
        assert t.delta(a) == 2.0

    def test_double_root_rejected(self):
        b = TreeBuilder()
        b.add_root()
        with pytest.raises(InvalidTreeError):
            b.add_root()

    def test_add_before_root_rejected(self):
        b = TreeBuilder()
        with pytest.raises(InvalidTreeError):
            b.add(0)

    def test_unknown_parent_rejected(self):
        b = TreeBuilder()
        b.add_root()
        with pytest.raises(InvalidTreeError):
            b.add(3)

    def test_add_chain(self):
        b = TreeBuilder()
        r = b.add_root()
        ids = b.add_chain(r, [1.0, 2.0, 3.0])
        b.add(ids[-1], requests=1)
        t = b.build()
        assert t.depth(ids[-1]) == pytest.approx(6.0)

    def test_n_nodes(self):
        b = TreeBuilder()
        b.add_root()
        b.add(0)
        assert b.n_nodes == 2


class TestCopiesAndEquality:
    def test_from_edges(self):
        t = Tree.from_edges(
            3, [(0, 1, 2.0), (1, 2, 3.0)], {2: 9}
        )
        assert t.requests(2) == 9
        assert t.delta(2) == 3.0

    def test_from_edges_two_parents_rejected(self):
        with pytest.raises(InvalidTreeError):
            Tree.from_edges(3, [(0, 2, 1.0), (1, 2, 1.0)], {})

    def test_with_requests(self, paper_example):
        t = paper_example.tree
        t2 = t.with_requests([0, 0, 0, 1, 1, 1, 1])
        assert t2.total_requests == 4
        assert t.total_requests == 14  # original untouched

    def test_with_requests_validates_like_the_constructor(self, paper_example):
        t = paper_example.tree
        with pytest.raises(InvalidTreeError):
            t.with_requests([0] * (len(t) - 1))
        internal = t.internal_nodes[0]
        bad = [t.requests(v) for v in range(len(t))]
        bad[internal] = 2
        with pytest.raises(InvalidTreeError):
            t.with_requests(bad)

    def test_with_demands_shares_the_topology(self, paper_example):
        t = paper_example.tree
        leaf = t.clients[0]
        t2 = t.with_demands({leaf: t.requests(leaf) + 5})
        requests = [t.requests(v) for v in range(len(t))]
        requests[leaf] += 5
        assert t2 == Tree(
            [t.parent(v) for v in range(len(t))],
            [t.delta(v) for v in range(len(t))],
            requests,
        )
        assert t2._parents is t._parents and t2._children is t._children
        assert t2._topology is t._topology
        assert t.requests(leaf) == requests[leaf] - 5  # original untouched

    def test_demand_copy_reads_arity_without_a_walk(self):
        b = TreeBuilder()
        r = b.add_root()
        leaves = [b.add(r, requests=1) for _ in range(3)]
        t = b.build()
        assert t.arity == 3

        class NoWalk(tuple):
            def __iter__(self):
                raise AssertionError("arity walked the children lists")

        copy = t.with_demands({leaves[0]: 4})
        copy._children = NoWalk(copy._children)
        assert copy.arity == 3 and not copy.is_binary

    def test_with_demands_checks_the_changed_entries(self, paper_example):
        t = paper_example.tree
        leaf = t.clients[0]
        for levels in (
            {t.internal_nodes[0]: 1},
            {leaf: -1},
            {len(t): 1},
        ):
            with pytest.raises(InvalidTreeError):
                t.with_demands(levels)

    def test_with_deltas(self, paper_example):
        t = paper_example.tree
        t2 = t.with_deltas([math.inf] + [5.0] * 6)
        assert t2.delta(3) == 5.0

    def test_equality_and_hash(self):
        a, b = chain(4), chain(4)
        assert a == b and hash(a) == hash(b)
        assert a != chain(4, delta=2.0)
