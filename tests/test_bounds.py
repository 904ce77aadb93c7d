"""Unit tests for lower bounds (repro.core.bounds)."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Policy, ProblemInstance, TreeBuilder, lower_bound
from repro.algorithms import exact_multiple, exact_single
from repro.core.bounds import (
    big_item_lower_bound,
    subtree_lower_bound,
    volume_lower_bound,
)
from repro.core.tree import Tree
from repro.dynamic import DemandEvent
from repro.instances import isp_mesh, random_binary_tree, random_tree
from repro.service import PlacementService
from tests.conftest import tree_instances


def fan(requests, W, dmax=None, policy=Policy.SINGLE):
    b = TreeBuilder()
    r = b.add_root()
    for req in requests:
        b.add(r, delta=1.0, requests=req)
    return ProblemInstance(b.build(), W, dmax, policy)


class TestVolumeBound:
    def test_exact_division(self):
        assert volume_lower_bound(fan([4, 4], 4)) == 2

    def test_rounding_up(self):
        assert volume_lower_bound(fan([4, 4, 1], 4)) == 3

    def test_zero_demand(self):
        assert volume_lower_bound(fan([0, 0], 4)) == 0


class TestBigItemBound:
    def test_counts_only_big(self):
        inst = fan([3, 3, 2], 5)  # big means > 2.5
        assert big_item_lower_bound(inst) == 2

    def test_zero_under_multiple(self):
        inst = fan([3, 3, 2], 5, policy=Policy.MULTIPLE)
        assert big_item_lower_bound(inst) == 0

    def test_exactly_half_not_big(self):
        # Two items of exactly W/2 can share a server.
        inst = fan([3, 3], 6)
        assert big_item_lower_bound(inst) == 0


class TestSubtreeBound:
    def test_trapped_requests(self):
        # Two clients pinned to separate subtrees by dmax; volume alone
        # says 1 server, the subtree bound knows each subtree needs one.
        b = TreeBuilder()
        r = b.add_root()
        n1 = b.add(r, delta=10.0)
        n2 = b.add(r, delta=10.0)
        b.add(n1, delta=1.0, requests=2)
        b.add(n2, delta=1.0, requests=2)
        inst = ProblemInstance(b.build(), 10, 2.0, Policy.SINGLE)
        assert volume_lower_bound(inst) == 1
        assert subtree_lower_bound(inst) == 2

    def test_matches_volume_without_distance(self):
        inst = fan([4, 4, 1], 4)
        assert subtree_lower_bound(inst) == 3

    def test_children_sum(self):
        # Each of 3 pinned subtrees needs 2 servers (demand 2W trapped).
        b = TreeBuilder()
        r = b.add_root()
        for _ in range(3):
            n = b.add(r, delta=10.0)
            b.add(n, delta=1.0, requests=5)
            b.add(n, delta=1.0, requests=5)
        inst = ProblemInstance(b.build(), 5, 2.0, Policy.SINGLE)
        assert subtree_lower_bound(inst) == 6


class TestSoundness:
    """A lower bound must never exceed the true optimum."""

    @pytest.mark.parametrize("seed", range(12))
    def test_single_soundness(self, seed):
        inst = random_tree(
            4, 7, capacity=10, dmax=4.0 if seed % 2 else None,
            policy=Policy.SINGLE, seed=seed, max_arity=3,
        )
        assert lower_bound(inst) <= exact_single(inst).n_replicas

    @pytest.mark.parametrize("seed", range(12))
    def test_multiple_soundness(self, seed):
        inst = random_binary_tree(
            5, 6, capacity=8, dmax=5.0 if seed % 2 else None,
            policy=Policy.MULTIPLE, seed=seed,
        )
        assert lower_bound(inst) <= exact_multiple(inst).n_replicas


class TestNoDShortcut:
    """Without dmax the bound skips the root-path walk, not the answer."""

    @settings(
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
        max_examples=60,
    )
    @given(
        inst=tree_instances(with_dmax=False),
        policy=st.sampled_from([Policy.SINGLE, Policy.MULTIPLE]),
    )
    def test_equals_the_walk_with_a_slack_dmax(self, inst, policy):
        inst = inst.with_policy(policy)
        t = inst.tree
        # A dmax beyond every root distance keeps the walk but lets
        # every client reach the root, exactly like no dmax at all.
        slack = 1.0 + max(t.depth(v) for v in range(len(t)))
        walked = ProblemInstance(t, inst.capacity, slack, policy)
        assert lower_bound(inst) == lower_bound(walked)
        assert lower_bound(inst) == subtree_lower_bound(walked)

    def test_service_apply_never_walks_root_paths(self, monkeypatch):
        inst = isp_mesh(300, capacity=150, seed=2, policy=Policy.SINGLE)
        assert inst.dmax is None
        with PlacementService() as svc:
            sid = svc.start_dynamic(inst)

            def walked(*_args, **_kwargs):
                raise AssertionError("NoD apply walked a root path")

            monkeypatch.setattr(Tree, "eligible_servers", walked)
            clients = sorted(inst.tree.clients)[:3]
            outcome = svc.apply_events(
                sid, [DemandEvent(c, 1 + inst.tree.requests(c) % 5)
                      for c in clients],
            )
            assert outcome.ok and outcome.mode == "incremental"
