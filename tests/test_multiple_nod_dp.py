"""Tests for the Multiple-NoD dynamic program (reference [3]'s result)."""

from __future__ import annotations

import pytest

from repro import (
    Policy,
    PolicyError,
    ProblemInstance,
    TreeBuilder,
    is_valid,
    multiple_nod_dp,
)
from repro.algorithms import exact_multiple, multiple_bin
from repro.core import lower_bound
from repro.core.errors import InfeasibleInstanceError
from repro.dynamic import IncrementalNodDP
from repro.instances import random_binary_tree, random_tree
from repro.runner import registry
from repro.runner.result import Status
from repro.service import ErrorCode, PlacementService, SolveRequest


class TestPreconditions:
    def test_rejects_distance_constraint(self, paper_example):
        inst = paper_example.with_policy(Policy.MULTIPLE)
        with pytest.raises(PolicyError):
            multiple_nod_dp(inst)


class TestHandInstances:
    def test_single_client(self):
        b = TreeBuilder()
        r = b.add_root()
        b.add(r, delta=1.0, requests=5)
        inst = ProblemInstance(b.build(), 10, None, Policy.MULTIPLE)
        p = multiple_nod_dp(inst)
        assert is_valid(inst, p)
        assert p.n_replicas == 1

    def test_zero_demand(self):
        b = TreeBuilder()
        r = b.add_root()
        b.add(r, delta=1.0, requests=0)
        inst = ProblemInstance(b.build(), 10, None, Policy.MULTIPLE)
        assert multiple_nod_dp(inst).n_replicas == 0

    def test_split_saves_a_server(self):
        # Three clients of 4 under one node, W=6: Single needs 3
        # (4+4 > 6), Multiple needs 2 (12 = 2x6 split perfectly).
        b = TreeBuilder()
        r = b.add_root()
        n = b.add(r, delta=1.0)
        for _ in range(3):
            b.add(n, delta=1.0, requests=4)
        inst = ProblemInstance(b.build(), 6, None, Policy.MULTIPLE)
        p = multiple_nod_dp(inst)
        assert is_valid(inst, p)
        assert p.n_replicas == 2

    def test_volume_bound_met_on_star(self):
        # Star: only the root is shared; 4 clients of 3 and W=6:
        # root absorbs 6, two clients must self-serve: 3 replicas.
        b = TreeBuilder()
        r = b.add_root()
        for _ in range(4):
            b.add(r, delta=1.0, requests=3)
        inst = ProblemInstance(b.build(), 6, None, Policy.MULTIPLE)
        assert multiple_nod_dp(inst).n_replicas == 3

    def test_oversized_client_handled(self):
        # r_i > W is fine under Multiple-NoD: client 14, W=5, chain of
        # depth 2 above: needs ceil(14/5) = 3 replicas (client + two
        # ancestors).
        b = TreeBuilder()
        r = b.add_root()
        n = b.add(r, delta=1.0)
        b.add(n, delta=1.0, requests=14)
        inst = ProblemInstance(b.build(), 5, None, Policy.MULTIPLE)
        p = multiple_nod_dp(inst)
        assert is_valid(inst, p)
        assert p.n_replicas == 3

    def test_oversized_beyond_path_capacity(self):
        # Demand exceeding the whole path capacity is infeasible; the
        # DP cap makes g_root(0) unreachable.
        b = TreeBuilder()
        r = b.add_root()
        b.add(r, delta=1.0, requests=11)  # path capacity 2*5 = 10
        inst = ProblemInstance(b.build(), 5, None, Policy.MULTIPLE)
        with pytest.raises(InfeasibleInstanceError):
            multiple_nod_dp(inst)


def _over_path_capacity() -> ProblemInstance:
    """A root and one client of demand 30 with W=10: the two servers on
    the client's path hold only 20."""
    b = TreeBuilder()
    r = b.add_root()
    b.add(r, delta=1.0, requests=30)
    return ProblemInstance(b.build(), 10, None, Policy.MULTIPLE)


class TestInfeasible:
    """An infeasible instance is reported infeasible at every level,
    as ``exact`` and the incremental DP report it — not inapplicable."""

    def test_solver_raises_infeasible(self):
        inst = _over_path_capacity()
        with pytest.raises(InfeasibleInstanceError):
            multiple_nod_dp(inst)
        with pytest.raises(InfeasibleInstanceError):
            IncrementalNodDP().solve(inst)

    def test_registry_status_is_infeasible(self):
        inst = _over_path_capacity()
        result = registry.solve("multiple-nod-dp", inst)
        assert result.status == Status.INFEASIBLE
        assert result.error.startswith("InfeasibleInstanceError")
        assert registry.solve("exact", inst).status == Status.INFEASIBLE

    def test_service_caches_the_infeasible_outcome(self):
        request = SolveRequest(
            instance=_over_path_capacity(), solver="multiple-nod-dp"
        )
        with PlacementService() as svc:
            first = svc.solve(request)
            again = svc.solve(request)
        assert first.status == Status.INFEASIBLE
        assert first.error.code == ErrorCode.INFEASIBLE
        assert not first.diagnostics.cache_hit
        assert again.diagnostics.cache_hit
        assert again.status == Status.INFEASIBLE


class TestCrossValidation:
    @pytest.mark.parametrize("seed", range(15))
    def test_agrees_with_exact_and_multiple_bin_binary(self, seed):
        inst = random_binary_tree(
            5, 6, capacity=8, dmax=None, policy=Policy.MULTIPLE,
            seed=seed, request_range=(1, 8),
        )
        p = multiple_nod_dp(inst)
        assert is_valid(inst, p)
        assert p.n_replicas == exact_multiple(inst).n_replicas
        assert p.n_replicas == multiple_bin(inst).n_replicas

    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_exact_wide(self, seed):
        inst = random_tree(
            4, 8, capacity=10, dmax=None, policy=Policy.MULTIPLE,
            seed=seed, max_arity=4, request_range=(1, 10),
        )
        p = multiple_nod_dp(inst)
        assert is_valid(inst, p)
        assert p.n_replicas == exact_multiple(inst).n_replicas

    @pytest.mark.parametrize("seed", range(8))
    def test_respects_lower_bound(self, seed):
        inst = random_tree(
            5, 9, capacity=12, dmax=None, policy=Policy.MULTIPLE,
            seed=100 + seed, max_arity=3, request_range=(1, 12),
        )
        p = multiple_nod_dp(inst)
        assert p.n_replicas >= lower_bound(inst)

    def test_oversized_clients_agree_with_exact(self):
        # The regime Theorem 5 talks about — but NoD keeps it easy.
        b = TreeBuilder()
        r = b.add_root()
        n = b.add(r, delta=1.0)
        b.add(n, delta=1.0, requests=9)
        b.add(n, delta=1.0, requests=2)
        inst = ProblemInstance(b.build(), 5, None, Policy.MULTIPLE)
        p = multiple_nod_dp(inst)
        assert is_valid(inst, p)
        assert p.n_replicas == exact_multiple(inst).n_replicas == 3
