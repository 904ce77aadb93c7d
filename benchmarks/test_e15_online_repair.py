"""E15 — online re-placement: incremental repair vs full re-solve.

Not a paper experiment but a ROADMAP one: the dynamic layer claims that
after a single-subtree event, re-folding only the dirty root path (a)
returns exactly the from-scratch answer and (b) is measurably faster
than re-solving.  This bench drives a 200+-node tree through randomized
event traces with both incremental backends and records cost parity,
repair success and the repair-vs-resolve speedup; pytest-benchmark
times the warm repair path of the exact Multiple-NoD DP.
"""

from __future__ import annotations

from repro import Policy
from repro.analysis import ExperimentTable
from repro.dynamic import DynamicPlacement, random_event_trace
from repro.instances import random_tree
from repro.replay import run_replay

from conftest import emit


def _instance(policy):
    return random_tree(70, 150, capacity=6, dmax=None, seed=11).with_policy(
        policy
    )


def test_e15_parity_and_speedup():
    table = ExperimentTable(
        "E15 (online repair)",
        "incremental repair matches cold re-solve cost on 50 randomized "
        "single-subtree events; the DP backend repairs faster than it "
        "re-solves",
    )
    for policy, label in [
        (Policy.MULTIPLE, "multiple-nod-dp"),
        (Policy.SINGLE, "single-nod"),
    ]:
        inst = _instance(policy)
        assert len(inst.tree) >= 200
        trace = random_event_trace(inst, steps=50, seed=5, p_fail=0.05)
        result = run_replay(inst, trace, seed=5, check_every=1)
        rows = result.rows
        parity = [v for v in result.violations if v.invariant == "incremental-parity"]
        table.add(
            f"{label}: cost parity over {result.parity_checks} audited events",
            "0 mismatches",
            f"{len(parity)} mismatches",
            result.parity_checks > 0 and not parity,
        )
        n_ok = sum(r.ok for r in rows)
        table.add(
            f"{label}: repair success rate",
            "100%",
            f"{n_ok * 100 / len(rows):.0f}%",
            n_ok == len(rows),
        )
        speedups = [r.speedup for r in rows if r.speedup is not None]
        mean_speedup = sum(speedups) / len(speedups) if speedups else 0.0
        speedup_ok = (
            mean_speedup > 1.0
            if policy is Policy.MULTIPLE
            else mean_speedup > 0.0
        )
        table.add(
            f"{label}: repair-vs-resolve mean speedup",
            ">1x" if policy is Policy.MULTIPLE else "measured",
            f"{mean_speedup:.2f}x",
            speedup_ok,
        )
    emit(table)


def test_e15_warm_repair_timing(benchmark):
    inst = _instance(Policy.MULTIPLE)
    engine = DynamicPlacement(inst)
    trace = random_event_trace(inst, steps=200, seed=7)
    state = {"k": 0}

    def warm_apply():
        batch = trace[state["k"] % len(trace)]
        state["k"] += 1
        outcome = engine.apply(batch)
        assert outcome.ok
        return outcome

    outcome = benchmark(warm_apply)
    cold, cold_s = engine.resolve_full()
    assert cold.n_replicas == outcome.cost
    benchmark.extra_info["cold_resolve_ms"] = cold_s * 1e3
    benchmark.extra_info["reuse_fraction"] = outcome.stats.reuse_fraction
