"""Self-tests of the benchmark's own machinery (no program run needed).

Run from the root of a checkout::

    python3 -m pytest perfbench/test_harness.py
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import harness
from harness import (
    END_TO_END,
    NOT_ON_PATH,
    PER_LAYER,
    SLOTS,
    Gauge,
    OpRecord,
    Outcome,
    RssCheckpoint,
    Tracer,
    measured,
    p90,
    perturbed,
    repeated_setup,
    report,
)

harness.import_program()


def test_benchmark_json_matches_the_catalogue():
    bench = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == PER_LAYER
    assert {w["name"] for w in bench["workloads"]} == set(SLOTS)
    slots = {name[: -len("_p50")] for name, _unit in END_TO_END
             if name.endswith("_p50")}
    assert all(set(classes) == slots for classes in SLOTS.values())


def test_p90_needs_a_hundred_samples():
    assert p90(list(range(99))) is None
    assert p90([float(v) for v in range(1, 101)]) == 90.0


def test_self_time_subtracts_overlapping_children_once():
    tr = Tracer()
    parent = tr.record("outer", 0.0, 10.0, op=0, cls="c")
    tr.record("a", 1.0, 3.0, op=0, cls="c", parent=parent)
    tr.record("b", 2.0, 5.0, op=0, cls="c", parent=parent)
    row = tr.table()[("outer", "c")]
    assert row["total_ms"] == pytest.approx(10_000.0)
    assert row["self_ms"] == pytest.approx(6_000.0)


def test_perturbed_redraws_a_share_of_clients_to_new_values():
    base = [0, 5, 7, 9, 0, 11] * 20
    out = perturbed(base, np.random.default_rng(1), 1, 12)
    changed = [i for i, (a, b) in enumerate(zip(base, out)) if a != b]
    assert len(changed) == int(harness.PERTURBED_SHARE * 80)
    assert all(base[i] > 0 and 1 <= out[i] <= 12 for i in changed)
    assert out == perturbed(base, np.random.default_rng(1), 1, 12)


def test_rss_checkpoint_reads_once_at_its_op():
    reads = iter([1.0, 2.0, 3.0])
    rss = RssCheckpoint(lambda: next(reads), after_op=2)
    for op in range(5):
        rss.after(op)
    assert rss.final() == 1.0
    assert RssCheckpoint(lambda: 7.0, after_op=99).final() == 7.0


def test_serve_schedule_fixes_each_class():
    import wl_serve

    variants = [wl_serve.Variant(i, {"requests": [i]}) for i in range(3)]
    ops = wl_serve.schedule(variants)
    assert [op for op, _cls, _v, _b in ops] == list(range(12))
    assert [cls for _op, cls, _v, _b in ops] == list(wl_serve.CYCLE) * 3
    for op, cls, v, body in ops:
        assert v.idx == op // len(wl_serve.CYCLE)
        assert body == (v.lean if cls == "lean_hit" else v.full)


def test_gauge_divides_each_op_by_the_mean_reading_around_it(monkeypatch):
    monkeypatch.setattr(harness, "GAUGE_WINDOW_S", 1.0)
    gauge = Gauge()
    gauge.times = [0.0, 0.5, 1.0, 5.0, 9.0]
    gauge.readings = [1.0, 2.0, 3.0, 4.0, 8.0]
    early = OpRecord(0, "a", 0.6, 0.7)        # window 0 .. 1.7
    late = OpRecord(1, "a", 9.5, 9.504)       # window 8.5 .. 10.5
    lone = OpRecord(2, "a", 2.5, 2.6)         # no reading within 1 s
    gauge.assign([early, late, lone])
    assert early.ref_ms == pytest.approx(2.0)
    assert late.ref_ms == 8.0 and late.ref == pytest.approx(0.5)
    assert lone.ref_ms == pytest.approx(3.5)  # the readings on either side
    whole = Gauge(window_s=None)
    whole.times, whole.readings = gauge.times, gauge.readings
    whole.assign([early])
    assert early.ref_ms == pytest.approx(3.6)


def test_throughput_counts_weights_over_summed_reference_time():
    out = Outcome("dp-sweep")
    out.ops = [OpRecord(0, "batch", 0.0, 0.2, weight=64, ref_ms=2.0),
               OpRecord(1, "single", 1.0, 1.01, ref_ms=2.0)]
    assert out.ops_per_ref_s == pytest.approx(1e3 * 65 / 105)
    assert out.ops_per_s == pytest.approx(65 / 0.21)
    assert out.by_class()["batch"] == [pytest.approx(100.0)]
    assert out.by_class(wall=True)["batch"] == [pytest.approx(200.0)]


def test_replay_schedule_is_seeded_and_changes_every_listed_client():
    import wl_replay

    base = np.full(50, 30, dtype=np.int64)
    one = wl_replay.make_schedule(base, capacity=300, seed=4)
    two = wl_replay.make_schedule(base, capacity=300, seed=4)
    assert len(one) == wl_replay.MAX_CYCLES * len(wl_replay.PATTERN)
    for (op, cls, idx, lv), (_op, _cls, idx2, lv2) in zip(one, two):
        assert cls == wl_replay.PATTERN[op % len(wl_replay.PATTERN)]
        assert idx.tolist() == idx2.tolist() and lv.tolist() == lv2.tolist()
        if cls != "dense":
            assert 1 <= len(idx) <= 8 and len(set(idx.tolist())) == len(idx)


def test_report_prints_exactly_the_catalogue():
    out = Outcome("dp-sweep", setup_s=[0.5, 0.4, 0.6])
    out.ops = [OpRecord(i, cls, 0.0, 0.001 * (i + 1))
               for i, cls in enumerate(["batch", "single", "mesh"])]
    result = report(out, seed=1, traced=False)
    assert list(result["metrics"]) == [name for name, _u in END_TO_END]
    assert result["correct"] and result["attempted"] == 3
    assert result["metrics"]["setup_s"]["value"] == 0.5
    traced = report(out, seed=1, traced=True)
    assert list(traced["metrics"]) == [name for name, _u in PER_LAYER]


def test_a_run_without_ops_fails():
    result = report(Outcome("dp-sweep"), seed=1, traced=False)
    assert not result["correct"] and result["failed"] == 1


def test_traced_report_labels_unset_and_unmeasured_layers(capsys):
    out = Outcome("dp-sweep")
    out.ops = [OpRecord(0, "single", 0.0, 0.001)]
    measured(out, "multiple_nod_dp.solve_ms", [2.0, 4.0])
    measured(out, "batched.solve_many_ms", [])
    result = report(out, seed=1, traced=True)
    lines = {line.split()[1]: line for line in capsys.readouterr().out.splitlines()
             if line.strip().startswith("layer ")}
    assert result["metrics"]["multiple_nod_dp.solve_ms"]["value"] == 3.0
    assert "[" not in lines["multiple_nod_dp.solve_ms"]
    assert lines["batched.solve_many_ms"].endswith("[unmeasured]")
    assert lines["router.hop_ms"].endswith(f"[{NOT_ON_PATH}]")
    assert result["metrics"]["router.hop_ms"]["value"] == 0.0


def test_repeated_setup_prepares_each_build_untimed_and_keeps_the_last():
    prepared, built, torn = iter(range(10)), [], []
    times = []
    system = repeated_setup(lambda x: built.append(x) or x, torn.append, times,
                            prepare=lambda: next(prepared), repeats=3)
    assert built == [0, 1, 2] and torn == [0, 1] and system == 2
    assert len(times) == 3


def test_sweep_requests_get_instances_of_their_own():
    import wl_sweep
    from repro.instances import instance_to_dict, random_tree

    source = wl_sweep.Variants(random_tree(6, 6, capacity=30, seed=1),
                               seed=1, stream=19, lo=1, hi=30)
    demand = source.draw()
    assert demand.dtype == np.int32
    one, two = source.request(demand), source.request(demand)
    assert one.instance.tree is not two.instance.tree
    assert instance_to_dict(one.instance)["requests"] == demand.tolist()
    assert instance_to_dict(two.instance) == instance_to_dict(one.instance)
