"""Online re-placement engine: events, fingerprints, incremental solvers.

The load-bearing property: **incremental repair equals a from-scratch
solve** — same cost always, identical placements for the greedy and,
while no host has failed, for the DP — over randomized event traces,
or the outcome explicitly reports a fallback mode.  Plus the ISSUE acceptance scenario: a
200+-node tree, ≥ 50 randomized single-subtree events, cost parity and
measured speedup.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Policy, ProblemInstance, TreeBuilder
from repro.algorithms.multiple_nod_dp import multiple_nod_dp
from repro.algorithms.single_nod import single_nod
from repro.core.errors import InvalidInstanceError
from repro.core.validation import placement_violations
from repro.dynamic import (
    MODE_FULL_RESOLVE,
    MODE_INCREMENTAL,
    MODE_INCREMENTAL_REPAIR,
    CapacityEvent,
    DemandEvent,
    DynamicPlacement,
    FailureEvent,
    IncrementalNodDP,
    IncrementalSingleNod,
    IncrementalUnsupported,
    apply_event,
    instance_salt,
    random_event_trace,
    subtree_fingerprints,
)
from repro.instances import random_tree
from tests.conftest import tree_instances


# ----------------------------------------------------------------------
# Events
# ----------------------------------------------------------------------
class TestEvents:
    def test_demand_event_changes_one_leaf(self, paper_example):
        client = paper_example.tree.clients[0]
        new, failed = apply_event(paper_example, DemandEvent(client, 7))
        assert failed is None
        assert new.tree.requests(client) == 7
        assert new.capacity == paper_example.capacity

    def test_demand_event_rejects_internal_node(self, paper_example):
        internal = paper_example.tree.internal_nodes[0]
        with pytest.raises(InvalidInstanceError):
            apply_event(paper_example, DemandEvent(internal, 3))

    def test_demand_event_rejects_negative(self, paper_example):
        client = paper_example.tree.clients[0]
        with pytest.raises(InvalidInstanceError):
            apply_event(paper_example, DemandEvent(client, -1))

    def test_failure_event_reports_node(self, paper_example):
        new, failed = apply_event(paper_example, FailureEvent(1))
        assert failed == 1
        assert new.tree == paper_example.tree

    def test_capacity_event_rejects_nonpositive(self, paper_example):
        with pytest.raises(InvalidInstanceError):
            apply_event(paper_example, CapacityEvent(0))

    def test_random_trace_is_deterministic(self, paper_example):
        t1 = random_event_trace(paper_example, steps=10, seed=4, p_fail=0.3)
        t2 = random_event_trace(paper_example, steps=10, seed=4, p_fail=0.3)
        assert t1 == t2

    def test_exhausted_failure_candidates_degrade_to_demand(self):
        # Once every internal node is down, the p_fail probability mass
        # must fall through to demand events — never to capacity events
        # the caller disabled.
        inst = random_tree(3, 6, capacity=8, dmax=None, seed=0)
        trace = random_event_trace(
            inst, steps=200, seed=1, p_fail=0.5, p_capacity=0.0
        )
        flat = [e for batch in trace for e in batch]
        assert not any(isinstance(e, CapacityEvent) for e in flat)
        n_internal = len(inst.tree.internal_nodes) - 1  # root never fails
        assert sum(isinstance(e, FailureEvent) for e in flat) == n_internal

    def test_random_trace_fails_internal_nodes_only(self, paper_example):
        trace = random_event_trace(
            paper_example, steps=40, seed=1, p_fail=0.9
        )
        tree = paper_example.tree
        for batch in trace:
            for e in batch:
                if isinstance(e, FailureEvent):
                    assert tree.is_internal(e.node)


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
class TestFingerprints:
    def test_demand_change_dirties_only_root_path(self, paper_example):
        inst = paper_example
        salt = instance_salt(inst)
        before = subtree_fingerprints(inst.tree, salt)
        client = inst.tree.clients[-1]
        mutated, _ = apply_event(inst, DemandEvent(client, 9))
        after = subtree_fingerprints(mutated.tree, instance_salt(mutated))
        path = set(inst.tree.path_to_root(client))
        for v in range(len(inst.tree)):
            if v in path:
                assert before[v] != after[v]
            else:
                assert before[v] == after[v]

    def test_capacity_change_dirties_everything(self, paper_example):
        inst = paper_example
        before = subtree_fingerprints(inst.tree, instance_salt(inst))
        resized, _ = apply_event(inst, CapacityEvent(inst.capacity + 1))
        after = subtree_fingerprints(resized.tree, instance_salt(resized))
        assert all(b != a for b, a in zip(before, after))

    def test_failure_flag_participates(self, paper_example):
        inst = paper_example
        salt = instance_salt(inst)
        clean = subtree_fingerprints(inst.tree, salt)
        failed = subtree_fingerprints(inst.tree, salt, frozenset({1}))
        path = set(inst.tree.path_to_root(1))
        for v in range(len(inst.tree)):
            assert (clean[v] == failed[v]) == (v not in path)


# ----------------------------------------------------------------------
# Incremental solvers == from-scratch solvers
# ----------------------------------------------------------------------
class TestIncrementalEqualsScratch:
    @settings(max_examples=40, deadline=None)
    @given(inst=tree_instances(with_dmax=False))
    def test_single_nod_identical_placements(self, inst):
        warm, stats = IncrementalSingleNod().solve(inst)
        assert warm == single_nod(inst)
        assert stats.nodes_recomputed == len(inst.tree)

    @settings(max_examples=30, deadline=None)
    @given(inst=tree_instances(max_nodes=16, with_dmax=False))
    def test_nod_dp_same_cost_and_valid(self, inst):
        inst = inst.with_policy(Policy.MULTIPLE)
        warm, _ = IncrementalNodDP().solve(inst)
        assert warm == multiple_nod_dp(inst)
        assert placement_violations(inst, warm) == []

    def test_single_nod_rejects_failed_hosts(self):
        inst = random_tree(6, 12, capacity=8, dmax=None, seed=0)
        with pytest.raises(IncrementalUnsupported):
            IncrementalSingleNod().solve(inst, frozenset({1}))

    def test_nod_dp_avoids_failed_hosts(self):
        inst = random_tree(8, 16, capacity=6, dmax=None, seed=2).with_policy(
            Policy.MULTIPLE
        )
        base, _ = IncrementalNodDP().solve(inst)
        victim = sorted(base.replicas)[0]
        placement, _ = IncrementalNodDP().solve(inst, frozenset({victim}))
        assert victim not in placement.replicas
        assert placement_violations(inst, placement) == []
        # Still exact among failure-avoiding placements, so never
        # cheaper than the unconstrained optimum.
        assert placement.n_replicas >= base.n_replicas

    def test_memo_reuses_untouched_subtrees(self):
        inst = random_tree(10, 20, capacity=6, dmax=None, seed=4).with_policy(
            Policy.MULTIPLE
        )
        backend = IncrementalNodDP()
        _p, cold = backend.solve(inst)
        assert cold.nodes_reused == 0
        client = inst.tree.clients[0]
        mutated, _ = apply_event(
            inst, DemandEvent(client, (inst.tree.requests(client) + 1) % 6)
        )
        _p2, warm = backend.solve(mutated)
        dirty = len(inst.tree.path_to_root(client))
        assert warm.nodes_recomputed == dirty
        assert warm.nodes_reused == len(inst.tree) - dirty


# ----------------------------------------------------------------------
# Engine property test: randomized traces, repair == resolve
# ----------------------------------------------------------------------
class TestEngineProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        inst=tree_instances(max_nodes=16, with_dmax=False),
        seed=st.integers(0, 10_000),
        policy=st.sampled_from([Policy.SINGLE, Policy.MULTIPLE]),
    )
    def test_trace_repair_matches_cold_resolve(self, inst, seed, policy):
        inst = inst.with_policy(policy)
        engine = DynamicPlacement(inst)
        trace = random_event_trace(
            inst, steps=6, seed=seed, p_fail=0.15, p_capacity=0.1
        )
        for batch in trace:
            outcome = engine.apply(batch)
            cold, _s = engine.resolve_full()
            if outcome.ok:
                assert cold is not None
                assert outcome.cost == cold.n_replicas
                assert placement_violations(
                    engine.instance, outcome.placement
                ) == []
                assert not (outcome.placement.replicas & engine.failed_hosts)
                if policy is Policy.MULTIPLE and not engine.failed_hosts:
                    assert outcome.placement == multiple_nod_dp(engine.instance)
            else:
                assert cold is None

    def test_single_policy_failure_uses_repair_mode(self):
        inst = random_tree(8, 16, capacity=9, dmax=None, seed=5)
        engine = DynamicPlacement(inst)
        victim = inst.tree.internal_nodes[1]
        outcome = engine.apply([FailureEvent(victim)])
        assert outcome.ok
        assert outcome.mode == MODE_INCREMENTAL_REPAIR
        assert victim not in outcome.placement.replicas
        assert placement_violations(engine.instance, outcome.placement) == []

    def test_dmax_instance_falls_back_to_full_resolve(self):
        inst = random_tree(8, 16, capacity=8, dmax=6.0, seed=2)
        engine = DynamicPlacement(inst)
        assert not engine.incremental
        client = inst.tree.clients[0]
        outcome = engine.apply([DemandEvent(client, 2)])
        assert outcome.mode == MODE_FULL_RESOLVE
        assert "distance constraint" in outcome.fallback_reason
        assert outcome.ok

    def test_capacity_event_recomputes_everything(self):
        inst = random_tree(8, 16, capacity=6, dmax=None, seed=1).with_policy(
            Policy.MULTIPLE
        )
        engine = DynamicPlacement(inst)
        outcome = engine.apply([CapacityEvent(7)])
        assert outcome.ok
        assert outcome.mode == MODE_INCREMENTAL
        assert outcome.stats.nodes_reused == 0
        # A capacity resize is still pure incremental (everything just
        # re-keys), so it must not be labelled a fallback.
        assert outcome.fallback_reason is None

    def test_infeasible_snapshot_reports_failure_then_recovers(self):
        b = TreeBuilder()
        root = b.add_root()
        mid = b.add(root, delta=1.0)
        leaf = b.add(mid, delta=1.0, requests=3)
        inst = ProblemInstance(b.build(), 5, None, Policy.SINGLE)
        engine = DynamicPlacement(inst)
        bad = engine.apply([DemandEvent(leaf, 9)])  # demand > W: no Single placement
        assert not bad.ok and engine.placement is None
        assert engine.stats().repair_failures == 1
        good = engine.apply([DemandEvent(leaf, 4)])
        assert good.ok and engine.placement is not None

    def test_malformed_event_rejects_batch_atomically(self):
        inst = random_tree(6, 12, capacity=8, dmax=None, seed=1)
        engine = DynamicPlacement(inst)
        before = engine.placement
        client = inst.tree.clients[0]
        internal = inst.tree.internal_nodes[0]
        outcome = engine.apply(
            [DemandEvent(client, 3), DemandEvent(internal, 3)]
        )
        assert not outcome.ok and "rejected batch" in outcome.error
        # Nothing was half-applied: snapshot, placement and counters
        # are exactly as before the bad batch.
        assert engine.instance.tree.requests(client) == inst.tree.requests(client)
        assert engine.placement is before
        assert engine.stats().applies == 0

    def test_explicit_non_incremental_solver_forces_fallback(self):
        inst = random_tree(6, 12, capacity=8, dmax=None, seed=3)
        engine = DynamicPlacement(inst, solver="greedy-packing")
        assert not engine.incremental
        outcome = engine.apply([DemandEvent(inst.tree.clients[0], 1)])
        assert outcome.mode == MODE_FULL_RESOLVE
        assert outcome.ok


# ----------------------------------------------------------------------
# ISSUE acceptance: 200+ nodes, ≥50 randomized traces, parity + speedup
# ----------------------------------------------------------------------
class TestAcceptance:
    @pytest.mark.parametrize("policy", [Policy.MULTIPLE, Policy.SINGLE])
    def test_200_node_tree_50_traces_cost_parity(self, policy):
        inst = random_tree(70, 150, capacity=6, dmax=None, seed=11).with_policy(
            policy
        )
        assert len(inst.tree) >= 200
        engine = DynamicPlacement(inst)
        trace = random_event_trace(inst, steps=50, seed=5, p_fail=0.05)
        repair_s = resolve_s = 0.0
        parity = 0
        for batch in trace:
            outcome = engine.apply(batch)
            assert outcome.ok, outcome.error
            cold, cold_s = engine.resolve_full()
            assert outcome.cost == cold.n_replicas
            if policy is Policy.MULTIPLE and not engine.failed_hosts:
                assert outcome.placement == multiple_nod_dp(engine.instance)
            parity += 1
            repair_s += outcome.repair_s
            resolve_s += cold_s
        assert parity == 50
        # Speedup must be measured and positive; the DP backend shows
        # ~1.3x (both sides pay the fingerprints and the routing), the
        # near-linear greedy is reported but not asserted hard.
        if policy is Policy.MULTIPLE:
            assert resolve_s > repair_s, (repair_s, resolve_s)
