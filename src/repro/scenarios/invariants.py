"""Solver-independent invariants for differential conformance testing.

Cross-validating solvers only against each other catches nothing when
they share a bug; these checks instead assert properties that hold for
*any correct solver* of the model, whatever its algorithm:

* **feasibility** — every ``status="ok"`` result passed the independent
  checker (the registry enforces this; an ``"invalid"`` or ``"error"``
  status on a feasible scenario is a violation);
* **exact agreement & dominance** — all exact solvers that complete
  report the same optimum, and no exact solver reports a cost above any
  heuristic's (the optimum is a lower bound on every feasible cost);
* **demand monotonicity** — halving every client demand can only lower
  the optimum, and doubling (capped at ``W``) can only raise it, since
  a placement stays feasible when demands shrink;
* **flat/reference bit-identity** — solvers rewritten onto the
  flat-array substrate must return placements identical to their
  preserved object-graph references;
* **incremental parity** — the dynamic engine's pure-incremental
  repairs must match a cold from-scratch solve replica-for-replica
  over any event trace.

Each check returns a list of :class:`Violation` rows; an empty list
means the invariant held.  The harness (:mod:`repro.scenarios.harness`)
runs them over the scenario grid.  :func:`sampled_violations` reports
the independent checker's findings in the same rows, so stress and
replay reports render identically.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from ..algorithms.reference import REFERENCE_PAIRS
from ..core.instance import ProblemInstance
from ..core.placement import Placement
from ..core.validation import iter_violations
from ..runner import registry
from ..runner.result import SolveResult, Status

__all__ = [
    "Violation",
    "INVARIANTS",
    "REFERENCE_PAIRS",
    "check_feasibility",
    "check_exact_dominance",
    "check_demand_monotonicity",
    "check_flat_reference_identity",
    "check_incremental_parity",
    "sampled_violations",
]


@dataclass(frozen=True)
class Violation:
    """One invariant breach on one scenario cell."""

    invariant: str
    cell: str
    solver: str
    detail: str

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Violation":
        return cls(**{k: data[k] for k in ("invariant", "cell", "solver", "detail")})

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.cell} :: {self.solver}: {self.detail}"


#: Invariant identifiers, in reporting order.
INVARIANTS = (
    "feasibility",
    "exact-dominance",
    "demand-monotonicity",
    "flat-reference-identity",
    "incremental-parity",
)


def sampled_violations(
    instance: ProblemInstance,
    placement: Placement,
    *,
    seed: int = 0,
    max_clients: int = 256,
    cell: str = "replay",
    solver: str = "-",
) -> List[Violation]:
    """The independent checker on a seeded sample of clients.

    Replica ids, every assignment's keys, registration and capacity are
    checked over the whole placement; completeness, policy, ancestry
    and distance for at most ``max_clients`` clients drawn
    deterministically from ``seed`` (see
    :func:`repro.core.validation.iter_violations`).  A clean sample is
    evidence, not proof; with ``max_clients`` at or above the client
    count it is the full check.  Returns one :class:`Violation` per
    finding, its ``invariant`` the checker's rule name.
    """
    if max_clients <= 0:
        raise ValueError(f"max_clients must be positive, got {max_clients}")
    clients = instance.tree.clients
    if len(clients) > max_clients:
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(clients), size=max_clients, replace=False)
        clients = [clients[int(i)] for i in sorted(idx)]
    return [
        Violation(invariant=rule, cell=cell, solver=solver, detail=message)
        for rule, message in iter_violations(instance, placement, clients)
    ]


def check_feasibility(cell: str, results: Sequence[SolveResult]) -> List[Violation]:
    """No solver may return an invalid placement or crash on a scenario."""
    out: List[Violation] = []
    for r in results:
        if r.status == Status.INVALID:
            out.append(
                Violation(
                    "feasibility", cell, r.solver,
                    f"checker rejected the placement: {r.error}",
                )
            )
        elif r.status == Status.ERROR:
            out.append(
                Violation(
                    "feasibility", cell, r.solver, f"solver crashed: {r.error}"
                )
            )
    return out


def check_exact_dominance(cell: str, results: Sequence[SolveResult]) -> List[Violation]:
    """Exact solvers agree with each other and lower-bound every heuristic."""
    exact_ok = []
    heur_ok = []
    for r in results:
        if r.status != Status.OK or r.n_replicas is None:
            continue
        spec = registry.get_solver(r.solver)
        (exact_ok if spec.exact else heur_ok).append(r)
    if not exact_ok:
        return []
    out: List[Violation] = []
    best = min(r.n_replicas for r in exact_ok)
    for r in exact_ok:
        if r.n_replicas != best:
            out.append(
                Violation(
                    "exact-dominance", cell, r.solver,
                    f"exact solvers disagree: {r.n_replicas} vs optimum {best}",
                )
            )
    for r in heur_ok:
        if r.n_replicas < best:
            out.append(
                Violation(
                    "exact-dominance", cell, r.solver,
                    f"heuristic beat the exact optimum: {r.n_replicas} < {best}",
                )
            )
    return out


def _scaled(instance: ProblemInstance, factor: float) -> ProblemInstance:
    """The instance with every client demand scaled (capped at ``W``)."""
    tree = instance.tree
    W = instance.capacity
    reqs = [
        min(W, int(tree.requests(v) * factor)) if tree.is_leaf(v) else 0
        for v in range(len(tree))
    ]
    return ProblemInstance(
        tree.with_requests(reqs),
        W,
        instance.dmax,
        instance.policy,
        name=f"{instance.name}×{factor:g}",
    )


def check_demand_monotonicity(
    cell: str,
    instance: ProblemInstance,
    results: Sequence[SolveResult],
    *,
    budget: Optional[int] = None,
) -> List[Violation]:
    """``OPT(demand/2) ≤ OPT(demand) ≤ OPT(min(2·demand, W))``.

    Any placement feasible for an instance stays feasible when demands
    shrink, so the optimum is monotone in the demand vector.  Uses the
    exact solvers that already succeeded on the cell and re-runs them
    on the scaled copies; comparisons are skipped when a scaled solve
    does not complete (budget exhaustion or infeasibility of the
    scaled-up copy are legitimate outcomes, not violations).
    """
    exact_names = [
        r.solver
        for r in results
        if r.status == Status.OK
        and r.n_replicas is not None
        and registry.get_solver(r.solver).exact
    ]
    if not exact_names:
        return []
    base = min(
        r.n_replicas for r in results
        if r.solver in exact_names and r.n_replicas is not None
    )

    def best_on(scaled: ProblemInstance) -> Optional[int]:
        costs = []
        for name in exact_names:
            res = registry.solve(name, scaled, budget=budget)
            if res.status == Status.OK and res.n_replicas is not None:
                costs.append(res.n_replicas)
        return min(costs) if costs else None

    out: List[Violation] = []
    lo = best_on(_scaled(instance, 0.5))
    if lo is not None and lo > base:
        out.append(
            Violation(
                "demand-monotonicity", cell, ",".join(exact_names),
                f"halving demand raised the optimum: {lo} > {base}",
            )
        )
    hi = best_on(_scaled(instance, 2.0))
    if hi is not None and hi < base:
        out.append(
            Violation(
                "demand-monotonicity", cell, ",".join(exact_names),
                f"doubling demand lowered the optimum: {hi} < {base}",
            )
        )
    return out


def check_flat_reference_identity(
    cell: str,
    instance: ProblemInstance,
    results: Sequence[SolveResult],
) -> List[Violation]:
    """Flat-array solvers return the same placement as their references."""
    out: List[Violation] = []
    by_solver = {r.solver: r for r in results}
    for name, ref_fn in REFERENCE_PAIRS.items():
        r = by_solver.get(name)
        if r is None or r.status != Status.OK:
            continue
        try:
            ref_placement = ref_fn(instance)
        except Exception as exc:  # noqa: BLE001 — the divergence is the finding
            out.append(
                Violation(
                    "flat-reference-identity", cell, name,
                    f"flat path solved but reference raised "
                    f"{type(exc).__name__}: {exc}",
                )
            )
            continue
        ref_replicas = sorted(ref_placement.replicas)
        if ref_replicas != list(r.replicas):
            out.append(
                Violation(
                    "flat-reference-identity", cell, name,
                    f"replica sets differ: flat {r.replicas} vs "
                    f"reference {ref_replicas}",
                )
            )
    return out


def check_incremental_parity(
    cell: str,
    instance: ProblemInstance,
    trace: Sequence[Sequence[object]],
    *,
    solver: Optional[str] = None,
) -> List[Violation]:
    """Pure-incremental repairs cost exactly what a cold solve costs.

    Replays ``trace`` through a fresh :class:`~repro.dynamic.DynamicPlacement`
    with :func:`repro.replay.run_replay`, auditing every tick: each tick
    the engine repaired in ``incremental`` mode is re-solved cold, and a
    differing cost is an ``incremental-parity`` violation.  Fallback and
    failed-repair ticks are legitimate outcomes and are not violations;
    the sampled checker audits every tick's placement too.  Returns
    the run's violations, their cells prefixed with ``cell``.
    """
    # Imported here: the replay runner imports this module.
    from ..replay import run_replay

    result = run_replay(instance, trace, check_every=1, solver=solver)
    return [replace(v, cell=f"{cell} {v.cell}") for v in result.violations]
