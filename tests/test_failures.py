"""Tests for failure injection and repair (repro.dynamic.repair)."""

from __future__ import annotations

import pytest

from repro import Policy, ProblemInstance, TreeBuilder, is_valid
from repro.algorithms import multiple_bin, single_gen
from repro.dynamic import failure_study, repair_placement
from repro.instances import random_binary_tree, random_tree


class TestRepairSingle:
    def test_repaired_placement_valid(self, paper_example):
        p = single_gen(paper_example)
        victim = sorted(p.replicas)[0]
        res = repair_placement(paper_example, p, [victim])
        assert res is not None
        assert is_valid(paper_example, res.placement)
        assert victim not in res.placement.replicas

    def test_moved_requests_accounted(self, paper_example):
        p = single_gen(paper_example)
        victim = max(p.loads(), key=lambda s: p.loads()[s])
        res = repair_placement(paper_example, p, [victim])
        assert res is not None
        assert res.moved_requests == p.loads()[victim]

    def test_unrepairable_pinned_client(self):
        # A client pinned to itself (dmax=0): failing its replica kills
        # the instance.
        b = TreeBuilder()
        r = b.add_root()
        c = b.add(r, delta=5.0, requests=3)
        inst = ProblemInstance(b.build(), 5, 0.0, Policy.SINGLE)
        p = single_gen(inst)
        assert p.replicas == frozenset({c})
        assert repair_placement(inst, p, [c]) is None

    def test_no_failure_is_identity_count(self, paper_example):
        p = single_gen(paper_example)
        res = repair_placement(paper_example, p, [])
        assert res is not None
        assert res.placement.n_replicas == p.n_replicas
        assert res.moved_requests == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_random_single_repairs(self, seed):
        inst = random_tree(
            5, 10, capacity=15, dmax=None, policy=Policy.SINGLE,
            seed=seed, max_arity=3,
        )
        p = single_gen(inst)
        for victim in sorted(p.replicas):
            res = repair_placement(inst, p, [victim])
            # NoD: a repair always exists (clients can self-serve).
            assert res is not None
            assert is_valid(inst, res.placement)


class TestRepairMultiple:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_multiple_repairs(self, seed):
        # Under Multiple a repair may legitimately be impossible: a
        # client's root path holds one replica per node, and killing
        # one can leave less residual path capacity than the orphaned
        # demand.  The contract: either a checker-valid repair or None.
        inst = random_binary_tree(
            5, 6, capacity=8, dmax=None, policy=Policy.MULTIPLE,
            seed=seed, request_range=(1, 8),
        )
        p = multiple_bin(inst)
        outcomes = []
        for victim in sorted(p.replicas):
            res = repair_placement(inst, p, [victim])
            outcomes.append(res is not None)
            if res is not None:
                assert is_valid(inst, res.placement)
                assert victim not in res.placement.replicas
        assert outcomes  # at least one victim was tried

    def test_multiple_repair_with_headroom_succeeds(self):
        # Plenty of slack capacity on every path: repair must succeed.
        b = TreeBuilder()
        r = b.add_root()
        n = b.add(r, delta=1.0)
        b.add(n, delta=1.0, requests=3)
        b.add(n, delta=1.0, requests=2)
        inst = ProblemInstance(b.build(), 20, None, Policy.MULTIPLE)
        p = multiple_bin(inst)
        victim = sorted(p.replicas)[0]
        res = repair_placement(inst, p, [victim])
        assert res is not None
        assert is_valid(inst, res.placement)

    def test_split_repair(self):
        # Two clients of 3 with W=4: one gets split across the mid
        # server and the root; kill the mid server and repair.
        b = TreeBuilder()
        r = b.add_root()
        n = b.add(r, delta=1.0)
        b.add(n, delta=1.0, requests=3)
        b.add(n, delta=1.0, requests=3)
        inst = ProblemInstance(b.build(), 4, None, Policy.MULTIPLE)
        p = multiple_bin(inst)
        assert p.n_replicas == 2
        victim = sorted(p.replicas - {r})[0]
        res = repair_placement(inst, p, [victim])
        assert res is not None
        assert is_valid(inst, res.placement)
        assert victim not in res.placement.replicas


class TestFailureStudy:
    def test_study_shapes(self, paper_example):
        p = single_gen(paper_example)
        results = failure_study(
            paper_example, p, n_failures=1, trials=10, seed=1
        )
        assert len(results) == 10
        for res in results:
            if res is not None:
                assert is_valid(paper_example, res.placement)
                assert res.replica_overhead >= 0

    def test_too_many_failures_rejected(self, paper_example):
        p = single_gen(paper_example)
        with pytest.raises(ValueError):
            failure_study(paper_example, p, n_failures=99)

    def test_deterministic(self, paper_example):
        p = single_gen(paper_example)
        a = failure_study(paper_example, p, n_failures=1, trials=5, seed=3)
        b = failure_study(paper_example, p, n_failures=1, trials=5, seed=3)
        assert [r.failed for r in a if r] == [r.failed for r in b if r]
