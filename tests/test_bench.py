"""The persistent benchmark harness: snapshots, baselines, regressions."""

from __future__ import annotations

import json

import pytest

from repro.analysis import (
    bench_corpus,
    compare_snapshots,
    find_baseline,
    load_snapshot,
    render_bench_table,
    run_bench,
    snapshot_problems,
    write_snapshot,
)
from repro.cli import main


@pytest.fixture(scope="module")
def smoke_snapshot():
    """One smoke-profile bench run shared by the module's tests."""
    return run_bench("smoke", repeats=1)


class TestCorpus:
    def test_profiles_are_pinned_and_deterministic(self):
        a = bench_corpus("quick")
        b = bench_corpus("quick")
        assert [(name, inst) for name, inst, _ in a] == [
            (name, inst) for name, inst, _ in b
        ]

    def test_quick_profile_has_the_220_node_flagship(self):
        corpus = {name: inst for name, inst, _ in bench_corpus("quick")}
        assert len(corpus["nod220-multi"].tree) == 220

    def test_full_profile_extends_quick(self):
        quick = {name for name, _i, _s in bench_corpus("quick")}
        full = {name for name, _i, _s in bench_corpus("full")}
        assert quick < full

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            bench_corpus("nope")


class TestRunBench:
    def test_snapshot_shape(self, smoke_snapshot):
        s = smoke_snapshot
        assert s["schema"] == 1
        assert s["profile"] == "smoke"
        assert s["calibration_s"] > 0
        assert s["entries"] and s["comparisons"]
        for e in s["entries"]:
            assert e["status"] == "ok"
            assert e["wall_s"] >= 0 and e["throughput_nps"] > 0
        assert s["flat_cache"]["compiles"] >= 1

    def test_flat_paths_identical_to_references(self, smoke_snapshot):
        solvers = {c["solver"] for c in smoke_snapshot["comparisons"]}
        assert solvers == {"multiple-nod-dp", "single-nod", "multiple-greedy"}
        assert all(c["identical"] for c in smoke_snapshot["comparisons"])
        assert all(c["speedup"] > 0 for c in smoke_snapshot["comparisons"])

    def test_render_table(self, smoke_snapshot):
        text = render_bench_table(smoke_snapshot)
        assert "multiple-nod-dp" in text
        assert "speedup" in text
        assert "flat-tree cache" in text


class TestSnapshotStore:
    def test_write_load_round_trip(self, smoke_snapshot, tmp_path):
        path = write_snapshot(smoke_snapshot, tmp_path, label="2026-01-01")
        assert path.name == "BENCH_2026-01-01.json"
        assert load_snapshot(path) == json.loads(path.read_text())
        assert load_snapshot(path)["profile"] == "smoke"

    def test_find_baseline_picks_latest_and_excludes(self, smoke_snapshot, tmp_path):
        old = write_snapshot(smoke_snapshot, tmp_path, label="2026-01-01")
        new = write_snapshot(smoke_snapshot, tmp_path, label="2026-02-01")
        assert find_baseline(tmp_path) == new
        assert find_baseline(tmp_path, exclude=new) == old
        assert find_baseline(tmp_path / "empty") is None

    def test_find_baseline_prefers_dates_over_other_labels(
        self, smoke_snapshot, tmp_path
    ):
        """A committed BENCH_baseline.json must not shadow dated
        snapshots, even though 'baseline' sorts after any digit."""
        write_snapshot(smoke_snapshot, tmp_path, label="baseline")
        dated = write_snapshot(smoke_snapshot, tmp_path, label="2026-02-01")
        assert find_baseline(tmp_path) == dated
        # With only non-date labels, fall back to lexicographic order.
        dated.unlink()
        named = write_snapshot(smoke_snapshot, tmp_path, label="candidate")
        assert find_baseline(tmp_path) == named


class TestCompare:
    def test_no_regression_against_itself(self, smoke_snapshot):
        lines, regressions = compare_snapshots(smoke_snapshot, smoke_snapshot)
        assert lines and not regressions

    def test_detects_synthetic_regression(self, smoke_snapshot):
        slow = json.loads(json.dumps(smoke_snapshot))
        for e in slow["entries"]:
            e["wall_s"] = e["wall_s"] * 10 + 0.05
        _lines, regressions = compare_snapshots(slow, smoke_snapshot, 25.0)
        assert regressions
        # A generous threshold swallows the same slowdown.
        _lines, regressions = compare_snapshots(slow, smoke_snapshot, 1e9)
        assert not regressions

    def test_calibration_normalises_hardware(self, smoke_snapshot):
        """2x slower machine + 2x slower solver = no regression."""
        base = json.loads(json.dumps(smoke_snapshot))
        for e in base["entries"]:
            e["wall_s"] += 0.01  # above the jitter floor
        slow = json.loads(json.dumps(base))
        slow["calibration_s"] *= 2
        for e in slow["entries"]:
            e["wall_s"] *= 2
        _lines, regressions = compare_snapshots(slow, base, 25.0)
        assert not regressions

    def test_missing_or_errored_solver_is_a_regression(self, smoke_snapshot):
        """The gate fails closed: a solver the baseline measured ok
        cannot satisfy the comparison by not running at all."""
        broken = json.loads(json.dumps(smoke_snapshot))
        victim = broken["entries"][0]
        victim["status"] = "error"
        victim["error"] = "RuntimeError: boom"
        _lines, regressions = compare_snapshots(broken, smoke_snapshot)
        assert any("missing or not ok" in r for r in regressions)
        del broken["entries"][0]
        _lines, regressions = compare_snapshots(broken, smoke_snapshot)
        assert any("missing or not ok" in r for r in regressions)

    def test_snapshot_problems_flags_errors_and_divergence(self, smoke_snapshot):
        assert snapshot_problems(smoke_snapshot) == []
        broken = json.loads(json.dumps(smoke_snapshot))
        broken["entries"][0]["status"] = "error"
        broken["entries"][0]["error"] = "RuntimeError: boom"
        broken["comparisons"][0]["identical"] = False
        problems = snapshot_problems(broken)
        assert len(problems) == 2
        assert any("errored" in p for p in problems)
        assert any("diverged" in p for p in problems)

    def test_old_snapshot_with_batch_throughput_still_loads(
        self, smoke_snapshot, tmp_path
    ):
        """Snapshots written while the batched path existed (the
        pre-refresh committed baseline among them) carry a
        ``batch_throughput`` section; it loads and is ignored."""
        old = json.loads(json.dumps(smoke_snapshot))
        old["batch_throughput"] = [{
            "instance": "smoke-nod-multi", "solver": "multiple-nod-dp",
            "batch_size": 8, "status": "ok", "numpy": True,
            "sequential_s": 0.01, "batched_s": 1e-9, "speedup": 1.1,
            "min_speedup": 2.0, "identical": False,
        }]
        path = write_snapshot(old, tmp_path, label="2026-01-01")
        loaded = load_snapshot(path)
        assert snapshot_problems(loaded) == []
        lines, regressions = compare_snapshots(smoke_snapshot, loaded)
        assert lines and not regressions
        assert not any("batch" in line for line in lines)
        assert "batch" not in render_bench_table(loaded)

    def test_sub_millisecond_jitter_never_flags(self, smoke_snapshot):
        slow = json.loads(json.dumps(smoke_snapshot))
        for e in slow["entries"]:
            e["wall_s"] = 0.0005  # 0.5ms: below the jitter floor
        base = json.loads(json.dumps(smoke_snapshot))
        for e in base["entries"]:
            e["wall_s"] = 0.00001
        _lines, regressions = compare_snapshots(slow, base, 25.0)
        assert not regressions


class TestCli:
    def test_bench_verb_writes_snapshot(self, tmp_path, capsys):
        rc = main([
            "bench", "--profile", "smoke", "--out-dir", str(tmp_path),
            "--label", "test", "--baseline", "none",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        snap = load_snapshot(tmp_path / "BENCH_test.json")
        assert snap["profile"] == "smoke"

    def test_bench_verb_compares_against_latest(self, tmp_path, capsys):
        assert main([
            "bench", "--profile", "smoke", "--out-dir", str(tmp_path),
            "--label", "a", "--baseline", "none",
        ]) == 0
        rc = main([
            "bench", "--profile", "smoke", "--out-dir", str(tmp_path),
            "--label", "b", "--threshold", "1e9",
        ])
        assert rc == 0
        assert "vs baseline" in capsys.readouterr().out

    def test_bench_verb_fails_on_regression(self, tmp_path):
        # Quick profile: the 220-node flagship is well above the
        # sub-millisecond jitter floor, so a forged absurdly-fast
        # baseline must trip the regression gate.
        assert main([
            "bench", "--profile", "quick", "--out-dir", str(tmp_path),
            "--label", "base", "--baseline", "none",
        ]) == 0
        snap = load_snapshot(tmp_path / "BENCH_base.json")
        for e in snap["entries"]:
            e["wall_s"] = 1e-9
        fast = tmp_path / "BENCH_forged.json"
        fast.write_text(json.dumps(snap))
        rc = main([
            "bench", "--profile", "quick", "--out-dir", str(tmp_path),
            "--label", "cur", "--baseline", str(fast),
        ])
        assert rc == 1
