"""Unit tests for the problem-instance model (repro.core.instance)."""

from __future__ import annotations

import pytest

from repro import (
    InvalidInstanceError,
    Policy,
    ProblemInstance,
    TreeBuilder,
)


def tiny_tree(requests=(4, 3)):
    b = TreeBuilder()
    r = b.add_root()
    for req in requests:
        b.add(r, delta=1.0, requests=req)
    return b.build()


class TestValidation:
    def test_positive_capacity_required(self):
        with pytest.raises(InvalidInstanceError):
            ProblemInstance(tiny_tree(), 0)

    @pytest.mark.parametrize("capacity", [2.5, float("inf"), float("nan")])
    def test_non_integral_capacity_rejected(self, capacity):
        # The content key packs W as an int: W=2.5 would share W=2's
        # cached answers although the two instances differ.
        with pytest.raises(InvalidInstanceError):
            ProblemInstance(tiny_tree(), capacity)

    def test_integral_float_capacity_keys_like_the_int(self):
        from repro.core.instance import instance_fingerprint

        tree = tiny_tree()
        as_float = ProblemInstance(tree, 5.0)
        as_int = ProblemInstance(tree, 5)
        assert as_float == as_int
        assert instance_fingerprint(as_float) == instance_fingerprint(as_int)

    def test_negative_dmax_rejected(self):
        with pytest.raises(InvalidInstanceError):
            ProblemInstance(tiny_tree(), 5, -1.0)

    def test_infinite_dmax_rejected(self):
        with pytest.raises(InvalidInstanceError):
            ProblemInstance(tiny_tree(), 5, float("inf"))

    def test_none_dmax_means_nod(self):
        inst = ProblemInstance(tiny_tree(), 5, None)
        assert not inst.has_distance_constraint

    def test_zero_dmax_allowed(self):
        # dmax = 0 forces every client to self-serve.
        inst = ProblemInstance(tiny_tree(), 5, 0.0)
        assert inst.has_distance_constraint


class TestVariantNames:
    def test_single_nod_bin(self):
        inst = ProblemInstance(tiny_tree(), 5, None, Policy.SINGLE)
        assert inst.variant == "Single-NoD-Bin"

    def test_multiple_bin(self):
        inst = ProblemInstance(tiny_tree(), 5, 3.0, Policy.MULTIPLE)
        assert inst.variant == "Multiple-Bin"

    def test_single_general(self):
        b = TreeBuilder()
        r = b.add_root()
        for _ in range(3):
            b.add(r, requests=1)
        inst = ProblemInstance(b.build(), 5, 2.0, Policy.SINGLE)
        assert inst.variant == "Single"

    def test_multiple_nod(self):
        b = TreeBuilder()
        r = b.add_root()
        for _ in range(3):
            b.add(r, requests=1)
        inst = ProblemInstance(b.build(), 5, None, Policy.MULTIPLE)
        assert inst.variant == "Multiple-NoD"


class TestFeasibilityChecks:
    def test_client_fits_server(self):
        inst = ProblemInstance(tiny_tree((4, 3)), 4)
        assert inst.client_fits_server()
        inst2 = ProblemInstance(tiny_tree((5, 3)), 4)
        assert not inst2.client_fits_server()

    def test_single_oversized_client_infeasible(self):
        inst = ProblemInstance(tiny_tree((9, 1)), 5, None, Policy.SINGLE)
        reason = inst.trivially_infeasible()
        assert reason is not None and "Single" in reason

    def test_multiple_oversized_client_feasible_with_enough_ancestors(self):
        # Client of 9 can split over itself + parent (2 * 5 = 10 >= 9).
        inst = ProblemInstance(tiny_tree((9, 1)), 5, None, Policy.MULTIPLE)
        assert inst.trivially_infeasible() is None

    def test_multiple_demand_beyond_eligible_capacity(self):
        # dmax=0: the client alone must absorb 9 > W=5.
        inst = ProblemInstance(tiny_tree((9, 1)), 5, 0.0, Policy.MULTIPLE)
        assert inst.trivially_infeasible() is not None

    def test_feasible_instance_passes(self, paper_example):
        assert paper_example.trivially_infeasible() is None


class TestDerivedInstances:
    def test_with_policy(self, paper_example):
        m = paper_example.with_policy(Policy.MULTIPLE)
        assert m.policy is Policy.MULTIPLE
        assert m.tree is paper_example.tree
        assert paper_example.policy is Policy.SINGLE

    def test_without_distance(self, paper_example):
        nod = paper_example.without_distance()
        assert nod.dmax is None
        assert paper_example.dmax == 4.0

    def test_frozen(self, paper_example):
        with pytest.raises(AttributeError):
            paper_example.capacity = 10  # type: ignore[misc]
