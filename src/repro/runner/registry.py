"""Solver protocol and registry.

All placement algorithms register themselves under a stable name with
declarative applicability metadata (policy, NoD-only, binary-only,
exactness) and optional budget/stats plumbing::

    @register_solver("single-nod", policy=Policy.SINGLE, needs_nod=True)
    def single_nod(instance): ...

The decorator returns the function unchanged — existing direct callers
are unaffected — while the registry gains a uniform entry point::

    result = solve("single-nod", instance, budget=100_000)

which times the call, validates the placement with the independent
checker and returns a :class:`~repro.runner.result.SolveResult`
regardless of how the solver failed.  The batch runner, the CLI and the
benchmark harness all enumerate solvers exclusively through this module.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Protocol, runtime_checkable

from ..core.errors import (
    InfeasibleInstanceError,
    InvalidInstanceError,
    NotBinaryTreeError,
    PolicyError,
    ReproError,
    SolverError,
)
from ..core.instance import ProblemInstance
from ..core.placement import Placement
from ..core.policies import Policy
from ..core.validation import placement_violations
from ..core.bounds import lower_bound
from .result import SolveResult, Status

__all__ = [
    "Solver",
    "SolverSpec",
    "DuplicateSolverError",
    "UnknownSolverError",
    "register_solver",
    "unregister_solver",
    "get_solver",
    "available_solvers",
    "solvers_for",
    "solve",
    "result_from_outcome",
]


@runtime_checkable
class Solver(Protocol):
    """Anything that maps an instance to a placement."""

    def __call__(self, instance: ProblemInstance) -> Placement:  # pragma: no cover
        ...


class DuplicateSolverError(ReproError):
    """Two solvers registered under the same name."""


class UnknownSolverError(ReproError):
    """Lookup of a name no solver registered."""


@dataclass(frozen=True)
class SolverSpec:
    """Registry entry: the callable plus applicability metadata."""

    name: str
    fn: Callable[..., Placement]
    policy: Optional[Policy] = None  # None: any policy
    exact: bool = False
    needs_nod: bool = False  # only solves instances without dmax
    binary_only: bool = False
    budget_kwarg: Optional[str] = None  # kwarg receiving the search budget
    stats_kwarg: Optional[str] = None  # kwarg receiving a counters dict
    description: str = field(default="", compare=False)

    # ------------------------------------------------------------------
    def inapplicable_reason(self, instance: ProblemInstance) -> Optional[str]:
        """Why this solver cannot run on ``instance`` (None if it can)."""
        if self.policy is not None and instance.policy is not self.policy:
            return f"{self.name} solves {self.policy.value} instances only"
        if self.needs_nod and instance.has_distance_constraint:
            return f"{self.name} solves the NoD variants only"
        if self.binary_only and not instance.is_binary:
            return f"{self.name} requires a binary tree"
        return None

    def applicable(self, instance: ProblemInstance) -> bool:
        """True iff this solver accepts ``instance``."""
        return self.inapplicable_reason(instance) is None


_REGISTRY: Dict[str, SolverSpec] = {}


def register_solver(
    name: str,
    *,
    policy: Optional[Policy] = None,
    exact: bool = False,
    needs_nod: bool = False,
    binary_only: bool = False,
    budget_kwarg: Optional[str] = None,
    stats_kwarg: Optional[str] = None,
    description: str = "",
) -> Callable[[Callable[..., Placement]], Callable[..., Placement]]:
    """Class-style decorator registering a solver function.

    Returns the function unchanged so direct calls keep working.  Raises
    :class:`DuplicateSolverError` if ``name`` is already taken.
    """

    def deco(fn: Callable[..., Placement]) -> Callable[..., Placement]:
        if name in _REGISTRY:
            raise DuplicateSolverError(
                f"solver name {name!r} already registered by "
                f"{_REGISTRY[name].fn.__module__}.{_REGISTRY[name].fn.__qualname__}"
            )
        doc_lines = (fn.__doc__ or "").strip().splitlines()
        _REGISTRY[name] = SolverSpec(
            name=name,
            fn=fn,
            policy=policy,
            exact=exact,
            needs_nod=needs_nod,
            binary_only=binary_only,
            budget_kwarg=budget_kwarg,
            stats_kwarg=stats_kwarg,
            description=description or (doc_lines[0] if doc_lines else ""),
        )
        return fn

    return deco


def unregister_solver(name: str) -> None:
    """Remove a solver (tests only — production solvers self-register)."""
    _REGISTRY.pop(name, None)


def ensure_builtin_solvers() -> None:
    """Import the algorithm modules so their registrations run."""
    from .. import algorithms  # noqa: F401  (import side effect)


def get_solver(name: str) -> SolverSpec:
    """The spec registered under ``name`` (:class:`UnknownSolverError`)."""
    ensure_builtin_solvers()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise UnknownSolverError(
            f"unknown solver {name!r}; registered: {known}"
        ) from None


def available_solvers() -> List[SolverSpec]:
    """All registered solvers, sorted by name."""
    ensure_builtin_solvers()
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def solvers_for(instance: ProblemInstance, *, exact: Optional[bool] = None) -> List[SolverSpec]:
    """Registered solvers applicable to ``instance``.

    ``exact=True``/``False`` filters to exact / heuristic solvers.
    """
    out = [s for s in available_solvers() if s.applicable(instance)]
    if exact is not None:
        out = [s for s in out if s.exact is exact]
    return out


# ----------------------------------------------------------------------
def solve(
    name: str,
    instance: ProblemInstance,
    *,
    budget: Optional[int] = None,
    instance_id: Optional[str] = None,
    seed: int = 0,
    keep_placement: bool = False,
) -> SolveResult:
    """Run a registered solver and normalise the outcome.

    Never raises for solver-level failures: infeasibility, policy or
    shape mismatches, budget exhaustion and crashes all come back as a
    :class:`SolveResult` with the corresponding status.

    Parameters
    ----------
    name:
        Registry name of the solver (e.g. ``"single-gen"``).
    instance:
        The problem instance to solve.
    budget:
        Search budget, forwarded only to solvers that declared a
        ``budget_kwarg``; silently ignored otherwise.
    instance_id:
        Stable identifier recorded on the result (defaults to the
        instance's ``name`` or variant).
    seed:
        Seed recorded on the result for resumable sweep stores.
    keep_placement:
        When True, attach the full :class:`Placement` to the result
        (``result.placement``) so in-process callers — the service
        façade in particular — can return assignments without
        re-solving; batch/store paths leave it off since placements
        are transport-only and never persisted.

    Returns
    -------
    SolveResult
        ``status="ok"`` with objective/lower-bound/timing on success;
        ``"infeasible"``, ``"inapplicable"``, ``"budget"``,
        ``"invalid"`` or ``"error"`` otherwise, with ``error`` naming
        the exception.  The placement is checker-validated before
        ``"ok"`` is reported.

    Raises
    ------
    UnknownSolverError
        If ``name`` is not registered — a caller bug, not a solver
        outcome.
    """
    spec = get_solver(name)
    iid = instance_id if instance_id is not None else (instance.name or instance.variant)
    reason = spec.inapplicable_reason(instance)
    if reason is not None:
        return SolveResult(
            solver=name, instance=iid, seed=seed,
            status=Status.INAPPLICABLE, error=reason,
        )

    kwargs: Dict[str, object] = {}
    counters: Dict[str, int] = {}
    if budget is not None and spec.budget_kwarg:
        kwargs[spec.budget_kwarg] = budget
    if spec.stats_kwarg:
        kwargs[spec.stats_kwarg] = counters

    t0 = time.perf_counter()
    try:
        outcome: object = spec.fn(instance, **kwargs)
    except Exception as exc:  # noqa: BLE001 — uniform batch reporting
        outcome = exc
    return result_from_outcome(
        name,
        instance,
        outcome,
        time.perf_counter() - t0,
        counters=counters,
        instance_id=iid,
        seed=seed,
        keep_placement=keep_placement,
    )


def result_from_outcome(
    name: str,
    instance: ProblemInstance,
    outcome: object,
    elapsed: float,
    *,
    counters: Optional[Dict[str, int]] = None,
    instance_id: Optional[str] = None,
    seed: int = 0,
    keep_placement: bool = False,
) -> SolveResult:
    """Normalise a solver outcome produced out-of-band into a result.

    ``outcome`` is either the :class:`Placement` the solver returned or
    the exception it raised.  :func:`solve` reports through it, so a
    caller that obtains a placement elsewhere gets the same status
    mapping and checker validation as a direct registry call.
    """
    iid = (
        instance_id
        if instance_id is not None
        else (instance.name or instance.variant)
    )
    if counters is None:
        counters = {}
    if isinstance(outcome, BaseException):
        if isinstance(outcome, InfeasibleInstanceError):
            status = Status.INFEASIBLE
        elif isinstance(
            outcome, (PolicyError, NotBinaryTreeError, InvalidInstanceError)
        ):
            status = Status.INAPPLICABLE
        elif isinstance(outcome, SolverError):
            status = Status.BUDGET
        else:
            status = Status.ERROR
        return SolveResult(
            solver=name, instance=iid, seed=seed, status=status,
            wall_time=elapsed, counters=counters,
            error=f"{type(outcome).__name__}: {outcome}",
        )
    placement: Placement = outcome  # type: ignore[assignment]
    problems = placement_violations(instance, placement)
    status = Status.OK if not problems else Status.INVALID
    return SolveResult(
        solver=name,
        instance=iid,
        seed=seed,
        status=status,
        n_replicas=placement.n_replicas,
        lower_bound=lower_bound(instance),
        wall_time=elapsed,
        counters=counters,
        replicas=sorted(placement.replicas),
        error=None if not problems else f"InvalidPlacement: {problems[0]}",
        placement=placement if keep_placement else None,
    )
