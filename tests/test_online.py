"""Event-trace replay (``repro simulate --online``) and its report.

An event trace — a list of change-event batches — drives the dynamic
engine through the same runner as a demand trace, one batch per tick.
Audited ticks the engine repaired incrementally are re-solved cold:
the parity check that catches an incremental backend drifting from a
from-scratch solve.
"""

from __future__ import annotations

import pytest

from repro import Placement, Policy
from repro.analysis import render_replay_table, replay_report
from repro.cli import main
from repro.dynamic import (
    DemandEvent,
    DynamicPlacement,
    IncrementalNodDP,
    random_event_trace,
)
from repro.instances import dump_instance, random_tree
from repro.replay import run_replay
from repro.scenarios import check_incremental_parity, failure_storm_trace


def _multiple(seed, n_internal=10, n_clients=20, capacity=6):
    return random_tree(
        n_internal, n_clients, capacity=capacity, dmax=None, seed=seed
    ).with_policy(Policy.MULTIPLE)


class TestRunOnline:
    def test_multiple_backend_full_parity(self):
        inst = _multiple(3)
        trace = random_event_trace(
            inst, steps=12, seed=1, p_fail=0.1, p_capacity=0.05
        )
        result = run_replay(inst, trace, seed=1, check_every=1)
        assert result.horizon == len(result.rows) == 12
        assert [r.tick for r in result.rows] == list(range(12))
        assert result.violations == []
        incremental = [
            r for r in result.rows if r.ok and r.mode == "incremental"
        ]
        assert incremental
        assert result.parity_checks == len(incremental)
        assert all(r.resolve_ms is not None for r in incremental)
        assert all(
            r.resolve_ms is None for r in result.rows if r not in incremental
        )

    def test_check_every_zero_runs_no_cold_solve(self, monkeypatch):
        def no_cold_solve(self):
            raise AssertionError("check_every=0 ran a cold solve")

        monkeypatch.setattr(DynamicPlacement, "resolve_full", no_cold_solve)
        inst = random_tree(8, 16, capacity=8, dmax=None, seed=2)
        result = run_replay(
            inst, random_event_trace(inst, steps=5, seed=0), check_every=0
        )
        assert len(result.rows) == 5
        assert all(r.resolve_ms is None for r in result.rows)
        assert result.parity_checks == 0 and result.checks_run == 0

    def test_explicit_trace_is_honoured(self):
        inst = random_tree(8, 16, capacity=8, dmax=None, seed=2)
        c = sorted(inst.tree.clients)[0]
        result = run_replay(inst, [[DemandEvent(c, 1)], [DemandEvent(c, 2)]])
        assert len(result.rows) == 2
        assert [r.n_changes for r in result.rows] == [1, 1]
        assert result.rows[1].demand_total - result.rows[0].demand_total == 1
        assert result.trace.startswith("events:")

    def test_summary_mentions_success_and_speedup(self):
        inst = random_tree(8, 16, capacity=8, dmax=None, seed=4)
        result = run_replay(
            inst, random_event_trace(inst, steps=4, seed=1), check_every=1
        )
        summary = replay_report(result)["summary"]
        assert summary["ok_ticks"] == summary["ticks"] == 4
        assert summary["parity_checks"] == 4
        assert summary["speedup"]["mean"] > 0

    def test_same_batches_same_fingerprint(self):
        inst = _multiple(5)
        trace = failure_storm_trace(inst, storms=2, storm_size=2, seed=3)
        a = run_replay(inst, trace, seed=2, check_every=2)
        b = run_replay(inst, [list(batch) for batch in trace], seed=2,
                       check_every=2)
        assert a.fingerprint() == b.fingerprint()
        other = failure_storm_trace(inst, storms=2, storm_size=2, seed=4)
        assert run_replay(inst, other, seed=2).fingerprint() != a.fingerprint()

    @pytest.mark.parametrize("kwargs", [
        {"tenants": 2},
        {"rate_scale": 2.0},
        {"trace_params": {"flash": {"magnitude": 2.0}}},
        {"horizon": 5},
    ])
    def test_event_trace_rejects_demand_only_parameters(self, kwargs):
        inst = random_tree(6, 10, capacity=8, dmax=None, seed=1)
        trace = random_event_trace(inst, steps=3, seed=1)
        with pytest.raises(ValueError):
            run_replay(inst, trace, **kwargs)

    def test_empty_event_trace_rejected(self):
        inst = random_tree(6, 10, capacity=8, dmax=None, seed=1)
        with pytest.raises(ValueError, match="at least one batch"):
            run_replay(inst, [])


class TestOnlineReport:
    def test_report_contains_headline_sections(self):
        inst = _multiple(5)
        result = run_replay(
            inst, random_event_trace(inst, steps=8, seed=2, p_fail=0.2),
            check_every=1,
        )
        table = render_replay_table(result)
        assert "resolve" in table and "speedup" in table
        summary = replay_report(result)["summary"]
        for key in ("resolve_ms", "speedup", "parity_checks",
                    "fallback_reasons", "repair_errors", "repair_failures"):
            assert key in summary
        assert summary["invariant_violations"] == 0

    def test_table_truncates_at_limit(self):
        inst = random_tree(8, 16, capacity=8, dmax=None, seed=6)
        result = run_replay(inst, random_event_trace(inst, steps=10, seed=3))
        table = render_replay_table(result, limit=4)
        assert "... 6 more ticks" in table

    def test_fallback_reason_surfaces_for_dmax(self):
        inst = random_tree(8, 16, capacity=8, dmax=6.0, seed=2)
        result = run_replay(inst, random_event_trace(inst, steps=3, seed=1))
        assert all(r.mode == "full-resolve" for r in result.rows)
        reasons = replay_report(result)["summary"]["fallback_reasons"]
        assert any("distance constraint" in r for r in reasons)
        assert "distance constraint" in render_replay_table(result)


@pytest.fixture
def buggy_incremental(monkeypatch):
    """An IncrementalNodDP whose re-folds pay one idle extra replica.

    A backend's first solve is cold and stays correct, so the engine's
    initial placement and every cold re-solve are right and only the
    incremental ticks drift — the bug the parity audit exists for.
    """
    real_solve = IncrementalNodDP.solve

    def solve(self, instance, failed=frozenset()):
        placement, stats = real_solve(self, instance, failed)
        if getattr(self, "_test_folded", False):
            extra = next(
                v for v in range(len(instance.tree))
                if v not in placement.replicas and v not in failed
            )
            placement = Placement(
                placement.replicas | {extra}, placement.assignments
            )
        self._test_folded = True
        return placement, stats

    monkeypatch.setattr(IncrementalNodDP, "solve", solve)


class TestParityBugIsCaught:
    def test_check_incremental_parity_flags_it(self, buggy_incremental):
        inst = _multiple(7)
        trace = failure_storm_trace(inst, storms=2, storm_size=2, seed=3)
        violations = check_incremental_parity("cell-7", inst, trace)
        assert violations
        assert {v.invariant for v in violations} == {"incremental-parity"}
        assert all(v.cell.startswith("cell-7 tick") for v in violations)

    def test_run_replay_flags_it_on_both_sources(self, buggy_incremental):
        inst = _multiple(7)
        events = run_replay(
            inst, random_event_trace(inst, steps=4, seed=1), check_every=1
        )
        demand = run_replay(inst, "diurnal", horizon=6, check_every=1)
        for result in (events, demand):
            parity = [
                v for v in result.violations
                if v.invariant == "incremental-parity"
            ]
            assert parity and len(parity) <= result.parity_checks

    def test_cli_online_exits_1(self, buggy_incremental, tmp_path, capsys):
        path = str(tmp_path / "nod.json")
        dump_instance(_multiple(7), path)
        rc = main(["simulate", path, "--online", "--steps", "3"])
        assert rc == 1
        assert "VIOLATION [incremental-parity] tick" in capsys.readouterr().err
