#!/usr/bin/env python
"""Failure drill: how robust is a replica placement to server crashes?

The paper motivates placement partly through fault tolerance
(Section 1).  This example quantifies it on a CDN hierarchy:

1. provision replicas under a latency SLA with ``single_gen``;
2. drill: crash each replica in turn (then random pairs) and repair by
   re-routing orphaned demand — measuring repair success rate, how many
   requests move, and how many emergency replicas open;
3. compare the tight placement against an over-provisioned one
   (capacity headroom) to show the classic resilience/cost trade-off.

Run: ``python examples/failure_drill.py``
"""

from repro import ProblemInstance, check_placement, single_gen
from repro.dynamic import failure_study, repair_placement
from repro.instances import cdn_hierarchy


def drill(inst, placement, label):
    print(f"--- {label}: {placement.n_replicas} replicas, "
          f"load {sum(placement.loads().values())}/"
          f"{placement.n_replicas * inst.capacity}")

    # Exhaustive single-failure drill.
    repaired, moved, opened = 0, [], []
    for victim in sorted(placement.replicas):
        res = repair_placement(inst, placement, [victim])
        if res is not None:
            repaired += 1
            moved.append(res.moved_requests)
            opened.append(res.replica_overhead)
    n = placement.n_replicas
    print(f"  single failures: {repaired}/{n} repairable; "
          f"moved {sum(moved) / max(len(moved), 1):.0f} req avg; "
          f"emergency replicas {sum(opened) / max(len(opened), 1):.1f} avg")

    # Random double failures.
    if n >= 2:
        results = failure_study(inst, placement, n_failures=2, trials=15,
                                seed=11)
        ok = [r for r in results if r is not None]
        print(f"  double failures: {len(ok)}/15 repairable; worst overhead "
              f"{max((r.replica_overhead for r in ok), default=0)} replicas")


def main() -> None:
    base = cdn_hierarchy(capacity=300, dmax=9.0, seed=3)
    t = base.tree
    print(f"CDN tree: {len(t)} nodes, demand {t.total_requests}, "
          f"W = {base.capacity}, SLA dmax = {base.dmax}\n")

    tight = single_gen(base)
    check_placement(base, tight)
    drill(base, tight, "tight provisioning (W = 300)")

    print()
    roomy_inst = ProblemInstance(t, 450, base.dmax, base.policy)
    roomy = single_gen(roomy_inst)
    check_placement(roomy_inst, roomy)
    drill(roomy_inst, roomy, "over-provisioned (W = 450)")

    print("\nTrade-off: bigger servers mean fewer replicas, but each "
          "failure then orphans more demand (larger blast radius) and "
          "opens more emergency replicas — capacity headroom does not "
          "substitute for replica count when single nodes fail.")


if __name__ == "__main__":
    main()
