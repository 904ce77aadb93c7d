"""E12 — engineering ablations: preprocessing and failure repair.

Not a paper table — these benchmark the library's own extensions,
with the qualitative claims DESIGN.md makes for them:

* **preprocessing** (prune + unary-chain collapse) shrinks typical
  instances without changing the heuristics' replica counts, and
  speeds up the exact solver;
* **failure repair** restores validity after single-replica failures
  with bounded overhead (measured: extra replicas per repair).
"""

from __future__ import annotations

from repro import Policy, is_valid, single_gen
from repro.analysis import ExperimentTable
from repro.core import preprocess
from repro.dynamic import failure_study
from repro.instances import cdn_hierarchy, random_tree

from conftest import emit


def test_e12_preprocessing_preserves_heuristic_counts():
    table = ExperimentTable(
        "E12a (preprocessing)",
        "prune+collapse shrinks instances; lifted placements stay valid "
        "with identical replica counts on these families",
    )
    for name, inst in [
        ("cdn", cdn_hierarchy(capacity=300, dmax=9.0, seed=3)),
        (
            "random sparse",
            random_tree(
                30, 35, capacity=25, dmax=8.0, policy=Policy.SINGLE,
                seed=1, max_arity=3, request_range=(0, 25),
            ),
        ),
    ]:
        reduced, nmap = preprocess(inst)
        p = single_gen(reduced)
        lifted = nmap.lift(p)
        direct = single_gen(inst)
        table.add(
            name,
            "valid lift; |T| shrinks",
            f"|T| {len(inst.tree)}→{len(reduced.tree)}, "
            f"replicas {direct.n_replicas} direct vs {lifted.n_replicas} lifted",
            is_valid(inst, lifted) and len(reduced.tree) <= len(inst.tree),
        )
    emit(table)


def test_e12_failure_repair_overhead():
    table = ExperimentTable(
        "E12b (failure repair)",
        "single-replica failures are repaired with small overhead",
    )
    inst = cdn_hierarchy(capacity=300, dmax=9.0, seed=3)
    placement = single_gen(inst)
    results = failure_study(inst, placement, n_failures=1, trials=30, seed=0)
    repaired = [r for r in results if r is not None]
    overheads = [r.replica_overhead for r in repaired]
    ok = all(is_valid(inst, r.placement) for r in repaired)
    table.add(
        f"cdn, {placement.n_replicas} replicas, 30 single-failures",
        "all repairs valid",
        f"repaired {len(repaired)}/30, overhead mean "
        f"{sum(overheads) / max(len(overheads), 1):.2f} max "
        f"{max(overheads, default=0)}",
        ok and len(repaired) >= 25,
    )
    emit(table)


def test_e12_preprocess_benchmark(benchmark):
    inst = random_tree(
        200, 300, capacity=30, dmax=10.0, policy=Policy.SINGLE,
        seed=2, max_arity=3, request_range=(0, 30),
    )
    reduced, _ = benchmark(preprocess, inst)
    benchmark.extra_info["nodes_before"] = len(inst.tree)
    benchmark.extra_info["nodes_after"] = len(reduced.tree)
