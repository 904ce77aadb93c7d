"""Tests for the request-serving simulator (repro.simulate)."""

from __future__ import annotations

import random

import pytest

from repro import InvalidPlacementError, Placement, Policy, is_valid
from repro.algorithms import multiple_bin, single_gen
from repro.instances import random_binary_tree, random_tree
from repro.simulate import (
    Request,
    deterministic_trace,
    iter_units,
    poisson_trace,
    simulate,
    validate_horizon,
)
from repro.simulate.engine import _routers


def split_placement(instance):
    """A valid Multiple placement that splits clients over up to three
    servers of their root path (themselves, their parent, the root),
    its map filled in shuffled order."""
    tree = instance.tree
    root = tree.root
    amounts = {}
    for c in tree.clients:
        r = tree.requests(c)
        path = list(dict.fromkeys([c, tree.parent(c), root]))[:r]
        for k, s in enumerate(path):
            amounts[(c, s)] = r // len(path) + (k < r % len(path))
    items = list(amounts.items())
    random.Random(7).shuffle(items)
    return Placement({s for _c, s in amounts}, dict(items))


class TestSimulateOrder:
    """``simulate`` serves requests in time order, ties in trace order."""

    @staticmethod
    def _latencies(paper_example, trace):
        # Clients 3, 4 and 5 are served at distances 1, 2 and 3.
        p = Placement([0, 1, 2], {(3, 1): 4, (4, 1): 3, (5, 0): 5, (6, 2): 2})
        return simulate(paper_example, p, trace, horizon=4).latencies

    def test_time_ordering(self, paper_example):
        trace = [Request(3.0, 5), Request(1.0, 3), Request(2.0, 4)]
        assert self._latencies(paper_example, trace) == [1.0, 2.0, 3.0]

    def test_fifo_ties(self, paper_example):
        trace = [Request(1.0, 4), Request(1.0, 5), Request(1.0, 3)]
        assert self._latencies(paper_example, trace) == [2.0, 3.0, 1.0]

    def test_negative_time_rejected(self, paper_example):
        # Unchecked, int(-1.0) would index the last unit window.
        with pytest.raises(ValueError):
            self._latencies(paper_example, [Request(0.5, 3), Request(-1.0, 4)])


class TestTraces:
    def test_deterministic_counts(self, paper_example):
        t = paper_example.tree
        trace = deterministic_trace(t, horizon=3)
        assert len(trace) == 3 * t.total_requests
        # Per-unit counts are exact.
        per_unit = {}
        for req in trace:
            per_unit[int(req.time)] = per_unit.get(int(req.time), 0) + 1
        assert per_unit == {0: 14, 1: 14, 2: 14}

    def test_deterministic_sorted(self, paper_example):
        trace = deterministic_trace(paper_example.tree, horizon=2)
        times = [r.time for r in trace]
        assert times == sorted(times)

    def test_poisson_seeded(self, paper_example):
        a = poisson_trace(paper_example.tree, 5.0, seed=3)
        b = poisson_trace(paper_example.tree, 5.0, seed=3)
        assert [(r.time, r.client) for r in a] == [(r.time, r.client) for r in b]

    def test_poisson_rate_roughly_matches(self, paper_example):
        t = paper_example.tree
        trace = poisson_trace(t, 200.0, seed=0)
        expected = t.total_requests * 200
        assert 0.9 * expected < len(trace) < 1.1 * expected

    def test_bad_horizon(self, paper_example):
        with pytest.raises(ValueError):
            deterministic_trace(paper_example.tree, 0)
        with pytest.raises(ValueError):
            poisson_trace(paper_example.tree, 0.0)

    def test_iter_units(self, paper_example):
        trace = deterministic_trace(paper_example.tree, horizon=3)
        units = list(iter_units(trace))
        assert len(units) == 3
        assert all(len(u) == 14 for u in units)

    def test_unified_horizon_contract(self, paper_example):
        # Both generators accept ints and integral floats identically.
        t = paper_example.tree
        assert len(deterministic_trace(t, 2)) == len(deterministic_trace(t, 2.0))
        a = poisson_trace(t, 3, seed=1)
        b = poisson_trace(t, 3.0, seed=1)
        assert [(r.time, r.client) for r in a] == [(r.time, r.client) for r in b]
        for bad in (-1, 2.5, float("inf"), float("nan"), "5", True):
            with pytest.raises(ValueError):
                validate_horizon(bad)
        assert validate_horizon(5.0) == 5


class TestIterUnitsWindows:
    """The `iter_units` windows must partition [0, horizon) exactly."""

    def test_leading_gap_not_dropped(self):
        # Regression: a trace starting at t=2.5 used to silently drop
        # units 0-1, misaligning per-unit load with wall clock.
        trace = [Request(2.5, 7), Request(2.75, 8)]
        units = list(iter_units(trace))
        assert [len(u) for u in units] == [0, 0, 2]

    def test_trailing_idle_units_through_horizon(self):
        trace = [Request(0.5, 1)]
        units = list(iter_units(trace, horizon=5))
        assert [len(u) for u in units] == [1, 0, 0, 0, 0]

    def test_interior_gaps_preserved(self):
        trace = [Request(0.1, 1), Request(3.9, 2), Request(4.0, 2)]
        units = list(iter_units(trace, horizon=6))
        assert [len(u) for u in units] == [1, 0, 0, 1, 1, 0]

    def test_empty_trace_with_horizon(self):
        assert [len(u) for u in iter_units([], horizon=3)] == [0, 0, 0]

    def test_empty_trace_without_horizon(self):
        assert list(iter_units([])) == []

    def test_requests_beyond_horizon_excluded(self):
        trace = [Request(0.5, 1), Request(7.5, 2)]
        units = list(iter_units(trace, horizon=3))
        assert [len(u) for u in units] == [1, 0, 0]

    def test_unsorted_trace_rejected(self):
        with pytest.raises(ValueError):
            list(iter_units([Request(2.0, 1), Request(0.5, 2)]))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            list(iter_units([Request(-0.5, 1)]))

    @pytest.mark.parametrize("seed", range(5))
    def test_partition_property(self, seed, paper_example):
        # Counts sum to the trace length (within horizon), window count
        # equals the horizon, and each request lands in window int(t).
        horizon = 6
        trace = poisson_trace(paper_example.tree, horizon, seed=seed)
        units = list(iter_units(trace, horizon=horizon))
        assert len(units) == horizon
        in_horizon = [r for r in trace if r.time < horizon]
        assert sum(len(u) for u in units) == len(in_horizon)
        for k, unit in enumerate(units):
            assert all(int(r.time) == k for r in unit)


class TestSimulation:
    def test_deterministic_trace_never_overloads(self, paper_example):
        """A checker-valid placement must show zero overloaded windows
        on the literal (deterministic) workload — the static capacity
        constraint *is* the per-unit load."""
        p = single_gen(paper_example)
        trace = deterministic_trace(paper_example.tree, horizon=5)
        res = simulate(paper_example, p, trace, horizon=5)
        assert res.overloads == []
        assert res.served == len(trace)

    def test_latency_bounded_by_dmax(self, paper_example):
        p = single_gen(paper_example)
        trace = deterministic_trace(paper_example.tree, horizon=2)
        res = simulate(paper_example, p, trace, horizon=2)
        assert res.max_latency <= paper_example.dmax

    def test_unit_loads_match_static_assignment(self, paper_example):
        p = single_gen(paper_example)
        trace = deterministic_trace(paper_example.tree, horizon=4)
        res = simulate(paper_example, p, trace, horizon=4)
        static = p.loads()
        for s, vec in res.unit_loads.items():
            assert vec == [static[s]] * 4

    def test_multiple_policy_split_served_proportionally(self):
        inst = random_binary_tree(
            5, 6, capacity=8, dmax=5.0, policy=Policy.MULTIPLE,
            seed=1, request_range=(1, 8),
        )
        p = multiple_bin(inst)
        trace = deterministic_trace(inst.tree, horizon=6)
        res = simulate(inst, p, trace, horizon=6)
        assert res.overloads == []
        static = p.loads()
        for s, vec in res.unit_loads.items():
            assert vec == [static[s]] * 6

    def test_poisson_overloads_reported_not_fatal(self, paper_example):
        p = single_gen(paper_example)
        trace = poisson_trace(paper_example.tree, 20.0, seed=2)
        res = simulate(paper_example, p, trace, horizon=20)
        assert res.served == len(trace)
        assert 0.0 <= res.overload_fraction <= 1.0

    def test_summary_strings(self, paper_example):
        p = single_gen(paper_example)
        trace = deterministic_trace(paper_example.tree, horizon=2)
        res = simulate(paper_example, p, trace, horizon=2)
        s = res.summary()
        assert "served" in s and "latency" in s

    @pytest.mark.parametrize("seed", range(4))
    def test_any_valid_placement_simulates_cleanly(self, seed):
        inst = random_tree(
            5, 10, capacity=12, dmax=6.0, policy=Policy.SINGLE,
            seed=seed, max_arity=4,
        )
        p = single_gen(inst)
        trace = deterministic_trace(inst.tree, horizon=3)
        res = simulate(inst, p, trace, horizon=3)
        assert res.overloads == []
        assert res.max_latency <= inst.dmax


class TestRouters:
    """The routers come from one grouping pass over the assignments and
    match the per-client helpers they replaced."""

    INSTANCE = random_tree(
        6, 14, capacity=40, dmax=None, policy=Policy.MULTIPLE,
        seed=4, request_range=(1, 9),
    )

    def test_targets_and_weights_match_the_per_client_helpers(self):
        inst = self.INSTANCE
        placement = split_placement(inst)
        assert is_valid(inst, placement)
        routers = _routers(inst, placement)
        for c in inst.tree.clients:
            servers = placement.servers_of(c)
            assert routers[c].targets == servers
            assert routers[c].weights == [placement.assignments[(c, s)] for s in servers]
        assert set(routers) == set(inst.tree.clients)
        assert max(len(r.targets) for r in routers.values()) == 3

    def test_a_client_without_server_is_refused(self):
        inst = self.INSTANCE
        amounts = split_placement(inst).assignments
        c = inst.tree.clients[0]
        for key in [k for k in amounts if k[0] == c]:
            del amounts[key]
        with pytest.raises(InvalidPlacementError, match=f"client {c} has demand"):
            _routers(inst, Placement({s for _c, s in amounts}, amounts))

    def test_split_trace_replays_the_static_loads(self):
        inst = self.INSTANCE
        placement = split_placement(inst)
        trace = deterministic_trace(inst.tree, horizon=4)
        res = simulate(inst, placement, trace, horizon=4)
        static = placement.loads()
        assert res.served == len(trace)
        for s, vec in res.unit_loads.items():
            assert vec == [static[s]] * 4
