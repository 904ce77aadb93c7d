"""PlacementService façade tests (repro.service.facade/selection)."""

from __future__ import annotations

import sys
import threading

import pytest

from dataclasses import replace as dc_replace

from repro import Placement, Policy, check_placement
from repro.instances import random_binary_tree, random_tree
from repro.storage import StateStore
from repro.runner import register_solver, unregister_solver
from repro.service import (
    AUTO_CHAIN,
    ErrorCode,
    NoApplicableSolverError,
    PlacementService,
    SolveRequest,
    select_solver,
    selection_candidates,
)


@pytest.fixture
def single_d():
    return random_tree(6, 12, capacity=15, dmax=5.0, seed=2)


@pytest.fixture
def svc():
    with PlacementService(cache_size=8) as service:
        yield service


class TestAutoSelection:
    def test_single_with_distance_picks_single_gen(self, single_d):
        spec, reason = select_solver(single_d)
        assert spec.name == "single-gen"
        assert "auto-selected" in reason

    def test_single_nod_picks_single_nod(self, single_d):
        spec, _ = select_solver(single_d.without_distance())
        assert spec.name == "single-nod"

    def test_multiple_binary_picks_multiple_bin(self):
        inst = random_binary_tree(
            7, 8, capacity=10, dmax=None, seed=4, policy=Policy.MULTIPLE
        )
        spec, _ = select_solver(inst)
        assert spec.name == "multiple-bin"

    def test_multiple_nod_general_picks_dp(self, single_d):
        inst = single_d.without_distance().with_policy(Policy.MULTIPLE)
        spec, _ = select_solver(inst)
        # single_d's tree is arity-4: multiple-bin is out, DP is next.
        assert not inst.is_binary
        assert spec.name == "multiple-nod-dp"

    def test_multiple_with_distance_picks_greedy(self, single_d):
        inst = single_d.with_policy(Policy.MULTIPLE)
        spec, _ = select_solver(inst)
        assert spec.name == "multiple-greedy"

    def test_candidates_follow_chain_order(self, single_d):
        candidates = selection_candidates(single_d)
        chain_positions = [
            AUTO_CHAIN.index(c) for c in candidates if c in AUTO_CHAIN
        ]
        assert chain_positions == sorted(chain_positions)
        # Exponential exact solvers never lead auto-selection.
        assert candidates[0] not in ("exact", "exact-single", "exact-multiple")

    def test_explicit_name_honoured_verbatim(self, single_d):
        spec, reason = select_solver(single_d, "local")
        assert spec.name == "local"
        assert "requested" in reason

    def test_empty_registry_raises(self, single_d, monkeypatch):
        from repro.service import selection

        monkeypatch.setattr(
            selection.registry, "available_solvers", lambda: []
        )
        with pytest.raises(NoApplicableSolverError):
            select_solver(single_d)


class TestSolve:
    def test_ok_response_passes_checker(self, svc, single_d):
        resp = svc.solve(SolveRequest(instance=single_d))
        assert resp.ok
        assert resp.solver == "single-gen"
        check_placement(single_d, resp.placement)
        assert resp.n_replicas == resp.placement.n_replicas
        assert resp.diagnostics.fingerprint
        assert resp.diagnostics.selection == "auto"

    def test_explicit_solver(self, svc, single_d):
        resp = svc.solve_instance(single_d, "exact")
        assert resp.ok and resp.solver == "exact"
        assert resp.diagnostics.selection == "explicit"

    def test_unknown_solver_is_typed_error(self, svc, single_d):
        resp = svc.solve_instance(single_d, "definitely-not-registered")
        assert resp.status == "error"
        assert resp.error.code == ErrorCode.UNKNOWN_SOLVER

    def test_inapplicable_is_typed(self, svc, single_d):
        resp = svc.solve_instance(
            single_d.with_policy(Policy.MULTIPLE), "single-gen"
        )
        assert resp.status == "inapplicable"
        assert resp.error.code == ErrorCode.INAPPLICABLE

    def test_infeasible_is_typed(self, svc):
        # Clients demanding more than W: Single-infeasible.
        inst = random_tree(3, 4, capacity=2, dmax=None, request_range=(5, 9), seed=1)
        assert inst.tree.max_request > inst.capacity
        resp = svc.solve_instance(inst)
        assert resp.status == "infeasible"
        assert resp.error.code == ErrorCode.INFEASIBLE
        assert resp.placement is None

    def test_request_id_echoed(self, svc, single_d):
        resp = svc.solve(SolveRequest(instance=single_d, request_id="abc"))
        assert resp.request_id == "abc"

    def test_include_assignments_false_strips_placement(self, svc, single_d):
        resp = svc.solve(
            SolveRequest(instance=single_d, include_assignments=False)
        )
        assert resp.ok
        assert resp.placement is None
        assert resp.n_replicas is not None


class TestCacheBehaviour:
    def test_second_identical_request_hits(self, svc, single_d):
        first = svc.solve(SolveRequest(instance=single_d))
        second = svc.solve(SolveRequest(instance=single_d))
        assert not first.diagnostics.cache_hit
        assert second.diagnostics.cache_hit
        assert second.placement == first.placement
        assert second.diagnostics.fingerprint == first.diagnostics.fingerprint
        assert svc.stats().cache.hits == 1

    def test_equal_instances_share_cache_entry(self, svc, single_d):
        from repro.instances import instance_from_dict, instance_to_dict

        svc.solve(SolveRequest(instance=single_d))
        copy = instance_from_dict(instance_to_dict(single_d))
        resp = svc.solve(SolveRequest(instance=copy))
        assert resp.diagnostics.cache_hit

    def test_different_solver_is_a_miss(self, svc, single_d):
        svc.solve_instance(single_d, "single-gen")
        resp = svc.solve_instance(single_d, "local")
        assert not resp.diagnostics.cache_hit

    def test_eviction_under_capacity_one(self, single_d):
        other = random_tree(6, 12, capacity=15, dmax=5.0, seed=99)
        with PlacementService(cache_size=1) as svc:
            svc.solve_instance(single_d)
            svc.solve_instance(other)      # evicts single_d's entry
            resp = svc.solve_instance(single_d)
            assert not resp.diagnostics.cache_hit
            assert svc.stats().cache.evictions >= 1

    def test_hit_after_stripped_response_still_has_assignments(
        self, svc, single_d
    ):
        # A request that asked for no assignments must not poison the
        # cache for later callers that want them.
        svc.solve(SolveRequest(instance=single_d, include_assignments=False))
        resp = svc.solve(SolveRequest(instance=single_d))
        assert resp.diagnostics.cache_hit
        assert resp.placement is not None
        check_placement(single_d, resp.placement)

    def test_invalid_results_are_not_cached(self, single_d):
        calls = {"n": 0}

        def bogus(instance):
            calls["n"] += 1
            return Placement([], {})  # serves nobody: checker-invalid

        register_solver("test-bogus")(bogus)
        try:
            with PlacementService(cache_size=8) as svc:
                a = svc.solve_instance(single_d, "test-bogus")
                b = svc.solve_instance(single_d, "test-bogus")
            assert a.status == "invalid" == b.status
            assert a.error.code == ErrorCode.INVALID_PLACEMENT
            assert calls["n"] == 2  # recomputed, not served from cache
        finally:
            unregister_solver("test-bogus")

    def test_caller_mutation_cannot_poison_cached_counters(self, svc, single_d):
        first = svc.solve_instance(single_d, "exact")
        first.diagnostics.counters["poison"] = 999
        hit = svc.solve_instance(single_d, "exact")
        assert hit.diagnostics.cache_hit
        assert "poison" not in hit.diagnostics.counters
        hit.diagnostics.counters["poison2"] = 1
        again = svc.solve_instance(single_d, "exact")
        assert "poison2" not in again.diagnostics.counters

    def test_infeasible_results_are_cached(self, svc):
        inst = random_tree(3, 4, capacity=2, dmax=None, request_range=(5, 9), seed=1)
        svc.solve_instance(inst)
        resp = svc.solve_instance(inst)
        assert resp.status == "infeasible"
        assert resp.diagnostics.cache_hit


class TestConcurrency:
    def test_solve_many_preserves_order_and_validates(self, single_d):
        instances = [
            random_tree(5, 10, capacity=15, dmax=5.0, seed=s)
            for s in range(8)
        ]
        reqs = [
            SolveRequest(instance=i, request_id=f"r{n}")
            for n, i in enumerate(instances)
        ]
        with PlacementService(cache_size=32) as svc:
            responses = svc.solve_many(reqs)
        assert [r.request_id for r in responses] == [f"r{n}" for n in range(8)]
        for inst, resp in zip(instances, responses):
            assert resp.ok
            check_placement(inst, resp.placement)

    def test_solve_many_identical_requests_miss_once(self, single_d):
        with PlacementService(cache_size=32) as svc:
            responses = svc.solve_many(
                [SolveRequest(instance=single_d) for _ in range(16)]
            )
            stats = svc.stats()
        assert len({r.placement for r in responses}) == 1
        assert all(r.ok for r in responses)
        assert [r.diagnostics.cache_hit for r in responses] == [False] + [True] * 15
        assert (stats.requests, stats.cache.misses, stats.cache.hits) == (16, 1, 15)

    def test_concurrent_identical_requests_agree(self, single_d):
        # The threaded daemon calls solve() from one thread per
        # connection: more threads than cores and a short switch
        # interval make lost counter updates and torn cache state show.
        n_threads, per_thread = 8, 4
        request = SolveRequest(instance=single_d)
        start = threading.Barrier(n_threads)
        responses = []
        interval = sys.getswitchinterval()

        def worker(svc):
            start.wait(timeout=10)
            for _ in range(per_thread):
                responses.append(svc.solve(request))

        sys.setswitchinterval(1e-6)
        try:
            with PlacementService(cache_size=4) as svc:
                threads = [
                    threading.Thread(target=worker, args=(svc,))
                    for _ in range(n_threads)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                stats = svc.stats()
        finally:
            sys.setswitchinterval(interval)
        total = n_threads * per_thread
        assert len(responses) == total
        assert all(r.ok for r in responses)
        assert len({r.placement for r in responses}) == 1
        assert stats.requests == sum(stats.by_status.values()) == total
        assert stats.cache.hits + stats.cache.misses == total
        assert stats.cache.misses >= 1
        assert stats.latency_ms_max >= stats.latency_ms_p50 >= 0.0


def _dp_variants(k: int, seed: int = 7) -> list:
    """Same-shape Multiple-NoD instances differing only in requests —
    a demand sweep, the batch :meth:`solve_many` serves."""
    base = random_tree(
        5, 10, capacity=12, dmax=None, policy=Policy.MULTIPLE, seed=seed
    )
    tree = base.tree
    out = []
    for j in range(k):
        reqs = [
            (tree.requests(v) + j * (v + 1)) % (base.capacity + 1)
            if tree.is_leaf(v)
            else 0
            for v in range(len(tree))
        ]
        out.append(dc_replace(base, tree=tree.with_requests(reqs)))
    return out


class TestSolveManyBatchedDP:
    """:meth:`solve_many` over DP requests equals a sequential loop."""

    def test_batched_responses_equal_a_sequential_loop(self):
        reqs = [
            SolveRequest(instance=i, request_id=f"b{n}")
            for n, i in enumerate(_dp_variants(5))
        ]
        with PlacementService(cache_size=0) as seq_svc:
            expected = [seq_svc.solve(r) for r in reqs]
        with PlacementService(cache_size=0) as bat_svc:
            got = bat_svc.solve_many(reqs)
        assert [r.request_id for r in got] == [f"b{n}" for n in range(5)]
        for exp, resp in zip(expected, got):
            assert resp.status == exp.status == "ok"
            assert resp.solver == exp.solver == "multiple-nod-dp"
            assert resp.n_replicas == exp.n_replicas
            assert resp.placement == exp.placement
            assert not resp.diagnostics.cache_hit

    def test_cache_hits_never_reach_the_batch(self):
        variants = _dp_variants(4)
        reqs = [SolveRequest(instance=i) for i in variants]
        with PlacementService(cache_size=32) as svc:
            warm = svc.solve(reqs[0])
            responses = svc.solve_many(reqs)
            assert responses[0].diagnostics.cache_hit
            assert responses[0].placement == warm.placement
            assert not any(r.diagnostics.cache_hit for r in responses[1:])
            # A second pass finds every result cached by the first.
            again = svc.solve_many(reqs)
            assert all(r.diagnostics.cache_hit for r in again)
            assert [r.placement for r in again] == [
                r.placement for r in responses
            ]

    def test_mixed_batch_matches_sequential_loop(self, single_d):
        infeasible = random_tree(
            3, 4, capacity=2, dmax=None, request_range=(5, 9), seed=1
        )
        reqs = [
            SolveRequest(instance=i) for i in _dp_variants(3)
        ] + [
            SolveRequest(instance=single_d),               # pool path
            SolveRequest(instance=infeasible),             # typed failure
            SolveRequest(instance=single_d, solver="nope"),  # unknown
        ]
        with PlacementService(cache_size=0) as seq_svc:
            expected = [seq_svc.solve(r) for r in reqs]
        with PlacementService(cache_size=0) as bat_svc:
            got = bat_svc.solve_many(reqs)
        for exp, resp in zip(expected, got):
            assert resp.status == exp.status
            assert resp.solver == exp.solver
            assert resp.n_replicas == exp.n_replicas
            assert resp.placement == exp.placement
            if exp.error is not None:
                assert resp.error is not None
                assert resp.error.code == exp.error.code

    def test_batched_results_hit_the_wal_like_sequential_ones(self, tmp_path):
        """Durable state after a solve_many equals (a) the state
        a sequential service builds from the same requests and (b) its
        own state recovered from the WAL."""
        reqs = [SolveRequest(instance=i) for i in _dp_variants(4)]
        bat_dir, seq_dir = tmp_path / "bat", tmp_path / "seq"
        service = PlacementService(store=StateStore(str(bat_dir), fsync=False))
        service.solve_many(reqs)
        fp = service.state_fingerprint()
        service.close()

        sequential = PlacementService(
            store=StateStore(str(seq_dir), fsync=False)
        )
        for r in reqs:
            sequential.solve(r)
        assert sequential.state_fingerprint() == fp
        sequential.close()

        recovered = PlacementService(
            store=StateStore(str(bat_dir), fsync=False)
        )
        try:
            assert recovered.state_fingerprint() == fp
            assert all(
                r.diagnostics.cache_hit for r in recovered.solve_many(reqs)
            )
        finally:
            recovered.close()


class TestStats:
    def test_status_breakdown(self, svc, single_d):
        svc.solve_instance(single_d)
        svc.solve_instance(single_d, "definitely-not-registered")
        stats = svc.stats()
        assert stats.requests == 2
        assert stats.by_status.get("ok") == 1
        assert stats.by_status.get("error") == 1
        wire = stats.to_wire()
        assert wire["requests"] == 2
        assert 0.0 <= wire["cache"]["hit_rate"] <= 1.0

    def test_solver_info_lists_registry(self, svc):
        info = svc.solver_info()
        names = {s["name"] for s in info}
        assert "single-gen" in names and "exact" in names
        sg = next(s for s in info if s["name"] == "single-gen")
        assert sg["in_auto_chain"] is True
        ex = next(s for s in info if s["name"] == "exact")
        assert ex["in_auto_chain"] is False and ex["exact"] is True

    def test_one_nearest_rank_percentile_serves_every_report(self):
        from repro.analysis import replay as replay_report
        from repro.cluster import loadtest
        from repro.service.facade import percentile

        assert loadtest.percentile is percentile
        assert replay_report.percentile is percentile
        # Nearest rank, index round(q * (n - 1)): never interpolated.
        values = [1.0, 2.0, 3.0, 4.0]
        assert [percentile(values, q) for q in (0.0, 0.5, 0.9, 1.0)] == [
            1.0, 3.0, 4.0, 4.0,
        ]
        assert percentile([7.0], 0.99) == 7.0
        assert percentile([], 0.5) == 0.0
