"""Batch runner: parallel fan-out, per-task timeouts, resumability."""

from __future__ import annotations

import time

import pytest

from repro.core.placement import Placement
from repro.runner import (
    ResultStore,
    SweepTask,
    default_corpus,
    register_solver,
    run_sweep,
    tasks_for_corpus,
    unregister_solver,
)

FAST = ["single-gen", "greedy-packing", "local"]


def _multi_nod_spec(seed):
    return {
        "kind": "random_tree", "name": f"multi{seed}", "n_internal": 4,
        "n_clients": 8, "capacity": 10, "dmax": None,
        "policy": "multiple", "seed": seed,
    }


def _star_spec(name="tiny", seed=0):
    return {
        "name": name, "kind": "star", "n_clients": 4,
        "capacity": 9, "seed": seed, "policy": "single",
    }


@pytest.fixture
def sleepy_solver():
    name = "sleepy-test-solver"
    unregister_solver(name)

    @register_solver(name, description="sleeps well past any test timeout")
    def sleepy(instance):
        time.sleep(30)
        return Placement([], {})  # pragma: no cover - timeout fires first

    yield name
    unregister_solver(name)


class TestCorpusTasks:
    def test_default_corpus_is_deterministic_and_named(self):
        a, b = default_corpus(), default_corpus()
        assert a == b
        assert len(a) >= 20
        names = [s["name"] for s in a]
        assert len(set(names)) == len(names)

    def test_limit_truncates(self):
        assert len(default_corpus(limit=4)) == 4

    def test_inapplicable_pairs_are_dropped(self):
        # single-nod cannot run on distance-constrained instances; the
        # task cross product must not schedule those pairs.
        specs = default_corpus()
        tasks = tasks_for_corpus(specs, ["single-nod"])
        assert tasks
        assert all(t.spec.get("dmax") is None for t in tasks)

    def test_without_solver_list_every_applicable_solver_runs(self):
        tasks = tasks_for_corpus([_star_spec()])
        names = {t.solver for t in tasks}
        assert {"single-gen", "greedy-packing", "local"} <= names
        assert "multiple-bin" not in names  # wrong policy


class TestRunSweep:
    def test_serial_runs_all_tasks(self):
        tasks = tasks_for_corpus([_star_spec(seed=s) for s in (1, 2)], FAST)
        out = run_sweep(tasks, workers=1)
        assert out.n_run == len(tasks) == 6
        assert all(r.ok for r in out.results)

    def test_parallel_matches_serial(self):
        tasks = tasks_for_corpus(
            [_star_spec(name=f"s{k}", seed=k) for k in range(3)], FAST
        )
        serial = run_sweep(tasks, workers=1)
        parallel = run_sweep(tasks, workers=4)
        key = lambda r: (r.key, r.status, r.n_replicas)  # noqa: E731
        assert sorted(map(key, serial.results)) == sorted(map(key, parallel.results))

    def test_timeout_serial(self, sleepy_solver):
        task = SweepTask(solver=sleepy_solver, spec=_star_spec(), timeout=0.2)
        t0 = time.time()
        out = run_sweep([task], workers=1)
        assert time.time() - t0 < 5
        assert out.results[0].status == "timeout"

    def test_timeout_parallel_fork_inherits_registration(self, sleepy_solver):
        tasks = [
            SweepTask(solver=sleepy_solver, spec=_star_spec(name=f"t{k}"), timeout=0.2)
            for k in range(2)
        ]
        out = run_sweep(tasks, workers=2, resume=False)
        assert [r.status for r in out.results] == ["timeout", "timeout"]

    def test_timed_dp_tasks_run_beside_a_timeout(self, sleepy_solver):
        # DP tasks with and without a timeout share one sweep with a
        # task SIGALRM must interrupt; each keeps its own status.
        tasks = [
            SweepTask(solver="multiple-nod-dp", spec=_multi_nod_spec(0),
                      timeout=30.0),
            SweepTask(solver="multiple-nod-dp", spec=_multi_nod_spec(1)),
            SweepTask(solver="multiple-nod-dp", spec=_multi_nod_spec(2)),
            SweepTask(solver=sleepy_solver, spec=_multi_nod_spec(3),
                      timeout=0.2),
        ]
        out = run_sweep(tasks, workers=1)
        by_key = {f"{r.instance}@{r.seed}::{r.solver}": r for r in out.results}
        assert by_key[f"multi3@3::{sleepy_solver}"].status == "timeout"
        for s in range(3):
            assert by_key[f"multi{s}@{s}::multiple-nod-dp"].status == "ok"

    def test_bad_spec_is_an_error_row(self):
        task = SweepTask(solver="single-gen", spec={"name": "x", "kind": "no-such"})
        out = run_sweep([task], workers=1)
        assert out.results[0].status == "error"
        assert "no-such" in out.results[0].error


class TestResumability:
    def test_second_run_skips_completed_rows(self, tmp_path):
        store = ResultStore(str(tmp_path / "sweep.jsonl"))
        tasks = tasks_for_corpus(default_corpus(limit=3), FAST)
        first = run_sweep(tasks, workers=1, store=store)
        rows_after_first = len(store)
        second = run_sweep(tasks, workers=1, store=store)
        assert first.n_run == len(tasks)
        assert second.n_run == 0
        assert second.n_skipped == len(tasks)
        assert len(store) == rows_after_first  # nothing re-appended
        assert all(r.cached for r in second.results)

    def test_partial_store_runs_only_missing_tasks(self, tmp_path):
        store = ResultStore(str(tmp_path / "sweep.jsonl"))
        tasks = tasks_for_corpus(default_corpus(limit=3), FAST)
        run_sweep(tasks[:4], workers=1, store=store)
        out = run_sweep(tasks, workers=1, store=store)
        assert out.n_skipped == 4
        assert out.n_run == len(tasks) - 4

    def test_error_rows_are_retried_on_resume(self, tmp_path):
        # A crash is typically transient: resume must recompute it
        # rather than pinning the sweep to the stale error row forever.
        name = "flaky-test-solver"
        unregister_solver(name)
        marker = tmp_path / "crashed-once"

        @register_solver(name, description="crashes on first call only")
        def flaky(instance):
            if not marker.exists():
                marker.write_text("x")
                raise RuntimeError("transient crash")
            from repro.algorithms import local_placement

            return local_placement(instance)

        try:
            store = ResultStore(str(tmp_path / "sweep.jsonl"))
            task = SweepTask(solver=name, spec=_star_spec())
            first = run_sweep([task], workers=1, store=store)
            assert first.results[0].status == "error"
            second = run_sweep([task], workers=1, store=store)
            assert second.n_run == 1 and second.n_skipped == 0
            assert second.results[0].status == "ok"
            # latest() supersedes the error row, so a third run caches.
            third = run_sweep([task], workers=1, store=store)
            assert third.n_skipped == 1
        finally:
            unregister_solver(name)

    def test_timeout_rows_stay_cached_unless_asked(self, tmp_path, sleepy_solver):
        store = ResultStore(str(tmp_path / "sweep.jsonl"))
        task = SweepTask(solver=sleepy_solver, spec=_star_spec(), timeout=0.2)
        run_sweep([task], workers=1, store=store)
        resumed = run_sweep([task], workers=1, store=store)
        assert resumed.n_skipped == 1  # deterministic outcome: cached
        retried = run_sweep(
            [task], workers=1, store=store,
            retry_statuses=("error", "timeout"),
        )
        assert retried.n_run == 1

    def test_no_resume_recomputes(self, tmp_path):
        store = ResultStore(str(tmp_path / "sweep.jsonl"))
        tasks = tasks_for_corpus(default_corpus(limit=2), ["single-gen"])
        run_sweep(tasks, workers=1, store=store)
        out = run_sweep(tasks, workers=1, store=store, resume=False)
        assert out.n_run == len(tasks)
        assert len(store) == 2 * len(tasks)
