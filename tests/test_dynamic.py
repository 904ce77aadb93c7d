"""Online re-placement engine: events, dirty tracking, incremental solvers.

The load-bearing property: **incremental repair equals a from-scratch
solve** — same cost always, identical placements for the greedy and,
while no host has failed, for the DP — over randomized event traces,
or the outcome explicitly reports a fallback mode.  Plus the ISSUE acceptance scenario: a
200+-node tree, ≥ 50 randomized single-subtree events, cost parity and
measured speedup.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Policy, ProblemInstance, TreeBuilder
from repro.algorithms.multiple_nod_dp import multiple_nod_dp
from repro.algorithms.reference import single_nod_reference
from repro.algorithms.single_nod import single_nod
from repro.core.errors import InvalidInstanceError
from repro.core.instance import instance_fingerprint
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
    random_event_trace,
)
from repro.instances import random_tree
from tests.conftest import tree_instances
from tests.test_arrays import LEFTOVER_ORDER


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
# Dirty tracking: which nodes a re-solve re-folds
# ----------------------------------------------------------------------
def _nod(instance, policy):
    return instance.without_distance().with_policy(policy)


class TestFingerprints:
    def test_demand_change_dirties_only_root_path(self, paper_example):
        client = paper_example.tree.clients[-1]
        path = paper_example.tree.path_to_root(client)
        for backend, policy in (
            (IncrementalNodDP(), Policy.MULTIPLE),
            (IncrementalSingleNod(), Policy.SINGLE),
        ):
            inst = _nod(paper_example, policy)
            backend.solve(inst)
            mutated, _ = apply_event(inst, DemandEvent(client, 7))
            placement, stats = backend.solve(mutated)
            assert stats.nodes_recomputed == len(path)
            assert stats.nodes_reused == len(inst.tree) - len(path)
            assert placement == type(backend)().solve(mutated)[0]
            # Re-setting an unchanged level dirties nothing.
            _placement, stats = backend.solve(mutated)
            assert stats.nodes_recomputed == 0

    def test_capacity_change_dirties_everything(self, paper_example):
        inst = _nod(paper_example, Policy.MULTIPLE)
        backend = IncrementalNodDP()
        backend.solve(inst)
        resized, _ = apply_event(inst, CapacityEvent(inst.capacity + 1))
        _placement, stats = backend.solve(resized)
        assert stats.nodes_recomputed == len(inst.tree)
        assert stats.nodes_reused == 0

    def test_failure_flag_participates(self, paper_example):
        inst = _nod(paper_example, Policy.MULTIPLE)
        path = inst.tree.path_to_root(1)
        backend = IncrementalNodDP()
        backend.solve(inst)
        # Failing node 1, then reviving it, re-folds its root path only.
        for failed in (frozenset({1}), frozenset()):
            _placement, stats = backend.solve(inst, failed)
            assert stats.nodes_recomputed == len(path)

    def test_engine_fingerprint_is_the_content_key(self, paper_example):
        inst = _nod(paper_example, Policy.MULTIPLE)
        engine = DynamicPlacement(inst)
        assert engine.fingerprint() == instance_fingerprint(inst)
        engine.apply([FailureEvent(1)])
        assert engine.fingerprint() == instance_fingerprint(
            inst, frozenset({1})
        )
        assert engine.fingerprint() != instance_fingerprint(inst)


# ----------------------------------------------------------------------
# Incremental solvers == from-scratch solvers
# ----------------------------------------------------------------------
class TestIncrementalEqualsScratch:
    @settings(max_examples=40, deadline=None)
    @given(inst=tree_instances(with_dmax=False))
    @example(inst=LEFTOVER_ORDER)
    def test_single_nod_identical_placements(self, inst):
        warm, stats = IncrementalSingleNod().solve(inst)
        assert warm == single_nod(inst)
        # The oracle shares no code with the fold both of them run.
        assert warm == single_nod_reference(inst)
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

    def test_multiple_infeasible_batch_then_feasible_matches_cold(self):
        b = TreeBuilder()
        root = b.add_root()
        mid = b.add(root, delta=1.0)
        leaf = b.add(mid, delta=1.0, requests=3)
        b.add(root, delta=1.0, requests=2)
        inst = ProblemInstance(b.build(), 5, None, Policy.MULTIPLE)
        engine = DynamicPlacement(inst)
        # 30 > 3 servers x W on the leaf's root path: no placement.
        bad = engine.apply([DemandEvent(leaf, 30)])
        assert not bad.ok and engine.placement is None
        good = engine.apply([DemandEvent(leaf, 4)])
        assert good.ok and good.mode == MODE_INCREMENTAL
        assert good.placement == multiple_nod_dp(engine.instance)

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


# ----------------------------------------------------------------------
# Mesh scale: sparse and dense ticks across the whole-array switch
# ----------------------------------------------------------------------
class TestMeshScaleParity:
    """Incremental == cold on a few-hundred-node ISP mesh.

    Sparse ticks (1-8 demand events) alternate with dense
    ``diurnal+flash`` rows, so every tick crosses the derived layouts'
    and the backends' whole-array switch one way or the other.  Besides
    the placement, each tick's ``nodes_recomputed`` is checked against
    the ancestor closure of what changed since the last fold.
    """

    @staticmethod
    def _closure(tree, nodes):
        out = set()
        for v in nodes:
            out.update(tree.path_to_root(v))
        return len(out)

    def _run(self, policy, extra):
        import numpy as np

        from repro.core.arrays import DENSE_FRACTION
        from repro.instances import isp_mesh
        from repro.replay import make_trace

        inst = isp_mesh(200, capacity=300, seed=5, policy=policy)
        tree = inst.tree
        n = len(tree)
        assert 250 <= n <= 400
        clients = list(tree.clients)
        base = np.array([tree.requests(c) for c in clients])
        dense = make_trace(
            "diurnal+flash", n_clients=len(clients), horizon=6, seed=2
        ).levels(base, capacity=inst.capacity)
        rng = np.random.default_rng(9)
        batches = []
        for row in dense:
            k = int(rng.integers(1, 9))
            picked = rng.choice(len(clients), size=k, replace=False)
            batches.append([
                DemandEvent(clients[i], int(rng.integers(20, 121)))
                for i in picked
            ])
            batches.append([
                DemandEvent(c, int(level)) for c, level in zip(clients, row)
            ])
        batches[3:3] = extra(inst)

        engine = DynamicPlacement(inst)
        # What the backend last folded: levels, failed hosts and W.
        folded = {c: tree.requests(c) for c in clients}
        folded_failed = frozenset()
        folded_W = inst.capacity
        fractions = []
        emitted = []
        for batch in batches:
            outcome = engine.apply(batch)
            now = engine.instance
            levels = {c: now.tree.requests(c) for c in clients}
            failed = engine.failed_hosts
            if now.capacity != folded_W:
                expected = n
            else:
                changed = [c for c in clients if levels[c] != folded[c]]
                expected = self._closure(
                    tree, changed + sorted(failed ^ folded_failed)
                )
            single_infeasible = (
                policy is Policy.SINGLE and now.tree.max_request > now.capacity
            )
            if not single_infeasible:
                folded, folded_failed, folded_W = levels, failed, now.capacity
            if not outcome.ok:
                assert engine.placement is None
                assert engine.resolve_full()[0] is None
                continue
            assert outcome.mode == MODE_INCREMENTAL
            assert outcome.stats.nodes_recomputed == expected
            assert outcome.stats.nodes_reused == n - expected
            fractions.append(expected / n)
            placement = outcome.placement
            emitted.append((placement, placement.replicas, placement.assignments))
            if policy is Policy.SINGLE:
                assert outcome.placement == single_nod(now)
                assert outcome.placement == single_nod_reference(now)
            elif not failed:
                assert outcome.placement == multiple_nod_dp(now)
            else:
                assert placement_violations(now, outcome.placement) == []
                assert not (outcome.placement.replicas & failed)
                assert outcome.cost == engine.resolve_full()[0].n_replicas
        # Both sides of the switch were exercised, several times.
        assert sum(f > DENSE_FRACTION for f in fractions) >= 4
        assert sum(f < DENSE_FRACTION for f in fractions) >= 4
        # A placement handed out is never changed by a later tick (the
        # service caches them).
        for placement, replicas, assignments in emitted:
            assert placement.replicas == replicas
            assert placement.assignments == assignments

    def test_single_policy(self):
        def extra(inst):
            client = inst.tree.clients[7]
            return [
                [CapacityEvent(inst.capacity + 40)],
                # Demand above W: infeasible under Single, then back.
                [DemandEvent(client, inst.capacity + 50)],
                [DemandEvent(client, 30)],
            ]

        self._run(Policy.SINGLE, extra)

    def test_multiple_policy(self):
        def extra(inst):
            tree = inst.tree
            client = tree.clients[7]
            victim = tree.internal_nodes[len(tree.internal_nodes) // 2]
            # More than every server on the client's root path can hold.
            too_much = inst.capacity * len(tree.path_to_root(client)) + 1
            return [
                [CapacityEvent(inst.capacity + 40)],
                [FailureEvent(victim)],
                [DemandEvent(client, 10 * too_much)],
                [DemandEvent(client, 30)],
            ]

        self._run(Policy.MULTIPLE, extra)

    @pytest.mark.parametrize("policy", [Policy.SINGLE, Policy.MULTIPLE])
    def test_rebuilt_maps_keep_emitted_placements(self, policy):
        # Sparse ticks delete entries from the backend's live
        # (client, site) -> amount map until it is rebuilt.  Every tick
        # still equals a cold solve, every snapshot is a copy in the
        # map's order, and no rebuild changes a placement handed out.
        import numpy as np

        from repro.core.arrays import DENSE_FRACTION
        from repro.instances import isp_mesh

        inst = isp_mesh(200, capacity=300, seed=5, policy=policy)
        n = len(inst.tree)
        clients = list(inst.tree.clients)
        engine = DynamicPlacement(inst)
        backend = engine._backend

        def live():
            """The live map and the entries deleted from it so far."""
            if policy is Policy.SINGLE:
                return backend._amounts, backend._deleted
            routes = backend._memo.routes
            return routes.assignments, routes._deleted

        rng = np.random.default_rng(4)
        rebuilds = 0
        emitted = []
        for _tick in range(120):
            before, _deleted = live()
            picked = rng.choice(len(clients), size=int(rng.integers(1, 9)),
                                replace=False)
            outcome = engine.apply([
                DemandEvent(clients[i], int(rng.integers(20, 121)))
                for i in picked
            ])
            assert outcome.ok and outcome.mode == MODE_INCREMENTAL
            assert outcome.stats.nodes_recomputed <= DENSE_FRACTION * n
            now = engine.instance
            if policy is Policy.SINGLE:
                assert outcome.placement == single_nod_reference(now)
            else:
                assert outcome.placement == multiple_nod_dp(now)
            amounts, deleted = live()
            rebuilds += amounts is not before
            assert 2 * deleted <= len(amounts)
            snapshot = outcome.placement._assignments
            assert snapshot is not amounts and list(snapshot) == list(amounts)
            placement = outcome.placement
            emitted.append((placement, placement.replicas, placement.assignments))
        assert rebuilds >= 3
        for placement, replicas, assignments in emitted:
            assert placement.replicas == replicas
            assert placement.assignments == assignments

    def test_capacity_event_with_non_integral_w_rejects_the_batch(self):
        inst = random_tree(6, 12, capacity=8, dmax=None, seed=1)
        engine = DynamicPlacement(inst)
        client = inst.tree.clients[0]
        outcome = engine.apply([DemandEvent(client, 3), CapacityEvent(2.5)])
        assert not outcome.ok and "rejected batch" in outcome.error
        assert engine.instance is inst
        assert engine.stats().applies == 0

    def test_derived_tree_and_layout_keep_no_predecessor_alive(self):
        import gc

        from repro.core.arrays import flat_tree
        from repro.instances import isp_mesh

        tree = isp_mesh(60, capacity=300, seed=5).tree
        layout = flat_tree(tree)
        client = tree.clients[3]
        copy = tree.with_demands({client: tree.requests(client) + 1})
        derived = copy._flat
        assert derived is not None and derived.source == layout.serial
        assert flat_tree(copy) is derived
        for obj in (copy, derived):
            referents = gc.get_referents(obj)
            assert not any(r is tree or r is layout for r in referents)
