"""Unit tests for the independent checker (repro.core.validation)."""

from __future__ import annotations

import pytest

from repro import (
    InvalidPlacementError,
    Placement,
    Policy,
    ProblemInstance,
    check_placement,
    is_valid,
    placement_violations,
)
from repro.algorithms import single_gen
from repro.core.validation import iter_violations
from repro.scenarios import FAMILIES, build_scenario


def valid_placement(paper_example):
    # Serve clients 3,4 at n1 (loads 7 <= 8); 5,6 at n2 (7 <= 8).
    return Placement(
        [1, 2],
        {(3, 1): 4, (4, 1): 3, (5, 2): 5, (6, 2): 2},
    )


class TestValidPlacements:
    def test_valid_passes(self, paper_example):
        p = valid_placement(paper_example)
        assert placement_violations(paper_example, p) == []
        assert is_valid(paper_example, p)
        check_placement(paper_example, p)  # no raise

    def test_self_serving_always_valid(self, paper_example):
        t = paper_example.tree
        p = Placement(
            list(t.clients), {(c, c): t.requests(c) for c in t.clients}
        )
        assert is_valid(paper_example, p)

    def test_multiple_split_valid(self, paper_example):
        inst = paper_example.with_policy(Policy.MULTIPLE)
        p = Placement(
            [1, 0, 2, 5],
            {
                (3, 1): 2,
                (3, 0): 2,
                (4, 1): 3,
                (5, 5): 5,
                (6, 2): 2,
            },
        )
        assert is_valid(inst, p)


class TestViolationDetection:
    def test_incomplete_assignment(self, paper_example):
        p = Placement([1, 2], {(3, 1): 4, (4, 1): 3, (5, 2): 4, (6, 2): 2})
        probs = placement_violations(paper_example, p)
        assert any("client 5" in m and "4 are assigned" in m for m in probs)

    def test_over_assignment_detected(self, paper_example):
        p = Placement([1, 2], {(3, 1): 5, (4, 1): 3, (5, 2): 5, (6, 2): 2})
        probs = placement_violations(paper_example, p)
        assert any("client 3" in m for m in probs)

    def test_single_policy_split_rejected(self, paper_example):
        p = Placement(
            [0, 1, 2],
            {(3, 1): 2, (3, 0): 2, (4, 1): 3, (5, 2): 5, (6, 2): 2},
        )
        probs = placement_violations(paper_example, p)
        assert any("Single policy violated" in m for m in probs)

    def test_same_split_fine_under_multiple(self, paper_example):
        inst = paper_example.with_policy(Policy.MULTIPLE)
        p = Placement(
            [0, 1, 2],
            {(3, 1): 2, (3, 0): 2, (4, 1): 3, (5, 2): 5, (6, 2): 2},
        )
        assert is_valid(inst, p)

    def test_capacity_violation(self, paper_example):
        # n1 takes all 4+3 plus c5's 5 = impossible anyway (not ancestor);
        # use root to exceed W=8 legally ancestry-wise.
        p = Placement(
            [0],
            {(3, 0): 4, (4, 0): 3, (5, 0): 5, (6, 0): 2},
        )
        probs = placement_violations(paper_example, p)
        assert any("W=8" in m for m in probs)

    def test_distance_violation(self, paper_example):
        # c4 at distance 3 from root: fine (dmax=4); c5 from root is 3;
        # tighten by serving c4 at root after raising its edge? Instead
        # serve c5 (distance 3) at root with dmax=4 is fine — use c4 at
        # n0 (3 <= 4) fine too. Take instance with dmax=2.5.
        inst = paper_example
        tight = type(inst)(inst.tree, inst.capacity, 2.5, inst.policy)
        p = Placement(
            [0, 1, 2],
            {(3, 1): 4, (4, 0): 3, (5, 2): 5, (6, 2): 2},
        )
        probs = placement_violations(tight, p)
        assert any("dmax" in m and "client 4" in m for m in probs)

    def test_ancestry_violation(self, paper_example):
        # n2 is not an ancestor of client 3.
        p = Placement(
            [1, 2],
            {(3, 2): 4, (4, 1): 3, (5, 2): 5, (6, 2): 2},
        )
        probs = placement_violations(paper_example, p)
        assert any("subtree constraint" in m for m in probs)

    def test_unregistered_server(self, paper_example):
        p = Placement(
            [2],
            {(3, 1): 4, (4, 1): 3, (5, 2): 5, (6, 2): 2},
        )
        probs = placement_violations(paper_example, p)
        assert any("not in R" in m for m in probs)

    def test_non_leaf_client(self, paper_example):
        p = Placement([0], {(1, 0): 1})
        probs = placement_violations(paper_example, p)
        assert any("not a leaf client" in m for m in probs)

    def test_out_of_range_nodes(self, paper_example):
        p = Placement([99], {(3, 99): 4})
        probs = placement_violations(paper_example, p)
        assert any("not a node" in m or "not a tree node" in m for m in probs)

    def test_check_placement_raises(self, paper_example):
        p = Placement([], {})
        with pytest.raises(InvalidPlacementError):
            check_placement(paper_example, p)

    def test_idle_replica_is_allowed(self, paper_example):
        # Idle replicas are wasteful but not invalid (they count in |R|).
        p = Placement(
            [0, 1, 2],
            {(3, 1): 4, (4, 1): 3, (5, 2): 5, (6, 2): 2},
        )
        assert is_valid(paper_example, p)


def _mutants(tree, placement):
    """``placement`` and one corruption of it per constraint."""
    root = tree.root
    amap = placement.assignments
    (c, s), amount = sorted(amap.items())[0]
    others = {k: v for k, v in amap.items() if k != (c, s)}
    stranger = next(v for v in tree.clients if v != c)
    yield placement
    # completeness: a client loses its assignment; a non-client gains one
    yield Placement(placement.replicas, others)
    yield Placement(placement.replicas, {**amap, (root, root): 1, (10**6, s): 1})
    # ancestry: another client serves c
    yield Placement(placement.replicas | {stranger}, {**others, (c, stranger): amount})
    # policy and capacity: c split with the root, then everyone at the root
    if amount > 1 and s != root:
        yield Placement(placement.replicas | {root}, {**others, (c, s): 1, (c, root): amount - 1})
    yield Placement({root}, {(v, root): tree.requests(v) for v in tree.clients if tree.requests(v)})
    # registration: a used server leaves R, and a replica is no node
    yield Placement((placement.replicas - {s}) | {len(tree)}, amap)


class TestClientSample:
    """Auditing every client by name is the full check; a sample checks less."""

    RULES = {"completeness", "policy", "ancestry", "distance", "capacity", "registration"}

    def _cases(self):
        for family in sorted(FAMILIES):
            for policy in (Policy.SINGLE, Policy.MULTIPLE):
                base = build_scenario(family, size=14, capacity=10, seed=2, policy=policy)
                placement = single_gen(base)
                assert placement_violations(base, placement) == []
                tight = ProblemInstance(base.tree, base.capacity, 1.0, policy)
                for inst in (base, tight):
                    for p in _mutants(base.tree, placement):
                        yield inst, p

    def test_all_clients_equals_full_check(self):
        seen = set()
        for inst, p in self._cases():
            full = placement_violations(inst, p)
            assert placement_violations(inst, p, clients=inst.tree.clients) == full
            seen.update(rule for rule, _message in iter_violations(inst, p))
        assert seen == self.RULES

    def test_sample_keeps_whole_placement_rules(self):
        whole = {"registration", "capacity"}
        for inst, p in self._cases():
            full = list(iter_violations(inst, p))
            part = list(iter_violations(inst, p, clients=inst.tree.clients[::3]))
            assert set(part) <= set(full)
            assert [f for f in full if f[0] in whole] == [f for f in part if f[0] in whole]
            keys = [f for f in full if "not a leaf client" in f[1]]
            assert keys == [f for f in part if "not a leaf client" in f[1]]
