"""Parallel batch runner: fan instances × solvers across processes.

A sweep is a list of :class:`SweepTask` — (solver name, instance spec,
budget, timeout) — executed either inline (``workers=1``) or on a
``fork`` process pool.  Tasks describe instances by *spec* (generator
name + parameters), not by object, so they pickle cheaply and every
worker regenerates its instance deterministically from the seed.

Per-task timeouts use ``SIGALRM`` (POSIX): the solver is interrupted in
place and the task reports ``status="timeout"`` instead of stalling the
sweep.  Results stream into a :class:`~repro.runner.store.ResultStore`
as they complete, and a re-run with ``resume=True`` skips every task
whose key is already stored — sweeps survive crashes and grow
incrementally across commits.
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
from dataclasses import dataclass, field
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

from ..instances.generators import make_instance
from . import registry
from .result import SolveResult, Status
from .store import ResultStore

__all__ = ["SweepTask", "SweepOutcome", "run_sweep", "tasks_for_corpus"]


@dataclass(frozen=True)
class SweepTask:
    """One unit of work: run one solver on one generated instance."""

    solver: str
    spec: Mapping  # instance spec for make_instance(); must carry "name"
    budget: Optional[int] = None
    timeout: Optional[float] = None

    @property
    def instance_id(self) -> str:
        return str(self.spec.get("name") or self.spec.get("kind", "instance"))

    @property
    def seed(self) -> int:
        return int(self.spec.get("seed", 0))

    @property
    def key(self) -> str:
        return f"{self.instance_id}@{self.seed}::{self.solver}"


@dataclass
class SweepOutcome:
    """What a sweep did: fresh results plus rows skipped via resume."""

    results: List[SolveResult] = field(default_factory=list)
    n_run: int = 0
    n_skipped: int = 0

    @property
    def all_results(self) -> List[SolveResult]:
        return self.results


class _Timeout(BaseException):
    """Internal: the SIGALRM fired before the solver returned.

    Derives from ``BaseException`` so the registry's uniform
    ``except Exception`` normalisation cannot swallow it — a timeout
    must surface as ``status="timeout"``, not ``"error"``.
    """


def _run_task(task: SweepTask) -> SolveResult:
    """Execute one task in the current process, enforcing its timeout."""
    try:
        instance = make_instance(task.spec)
    except Exception as exc:  # noqa: BLE001 — a bad spec is a task outcome
        return SolveResult(
            solver=task.solver, instance=task.instance_id, seed=task.seed,
            status=Status.ERROR, error=f"spec error — {type(exc).__name__}: {exc}",
        )

    use_alarm = (
        task.timeout is not None
        and task.timeout > 0
        and threading.current_thread() is threading.main_thread()
    )
    if not use_alarm:
        return registry.solve(
            task.solver, instance,
            budget=task.budget, instance_id=task.instance_id, seed=task.seed,
        )

    def _on_alarm(signum, frame):  # noqa: ANN001 — signal handler signature
        raise _Timeout()

    old_handler = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        # Armed inside the try: were the timer started before it, an
        # immediate expiry could raise _Timeout past the except below.
        signal.setitimer(signal.ITIMER_REAL, float(task.timeout))
        return registry.solve(
            task.solver, instance,
            budget=task.budget, instance_id=task.instance_id, seed=task.seed,
        )
    except _Timeout:
        return SolveResult(
            solver=task.solver, instance=task.instance_id, seed=task.seed,
            status=Status.TIMEOUT, wall_time=float(task.timeout),
            error=f"timed out after {task.timeout:g}s",
        )
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old_handler)


def tasks_for_corpus(
    specs: Sequence[Mapping],
    solvers: Optional[Sequence[str]] = None,
    *,
    budget: Optional[int] = None,
    timeout: Optional[float] = None,
    strict: bool = True,
) -> List[SweepTask]:
    """Cross a corpus of instance specs with solvers.

    Without an explicit solver list, every registered solver applicable
    to each instance is used.  With one, ``strict=True`` still drops
    (solver, instance) pairs the solver declares itself inapplicable to
    — they would only produce noise rows.
    """
    tasks: List[SweepTask] = []
    for spec in specs:
        instance = make_instance(spec)
        if solvers is None:
            names = [s.name for s in registry.solvers_for(instance)]
        else:
            names = []
            for name in solvers:
                s = registry.get_solver(name)
                if not strict or s.applicable(instance):
                    names.append(name)
        for name in names:
            tasks.append(
                SweepTask(solver=name, spec=spec, budget=budget, timeout=timeout)
            )
    return tasks


def run_sweep(
    tasks: Sequence[SweepTask],
    *,
    workers: int = 1,
    store: Optional[ResultStore] = None,
    resume: bool = True,
    retry_statuses: Tuple[str, ...] = (Status.ERROR,),
    on_result: Optional[Callable[[SolveResult], None]] = None,
) -> SweepOutcome:
    """Run a sweep, streaming results into ``store`` as they complete.

    ``resume=True`` (with a store) skips tasks whose key already has a
    row and returns the stored rows (``cached=True``) in their place —
    except rows whose status is in ``retry_statuses``, which are
    recomputed (a later append supersedes the old row, since
    :meth:`ResultStore.latest` is last-write-wins).  By default only
    ``"error"`` rows (crashes, typically transient) are retried;
    timeouts and budget exhaustions are deterministic outcomes and stay
    cached — pass ``retry_statuses=("error", "timeout")`` to re-attempt
    them too.  ``workers>1`` fans tasks over a ``fork`` pool — solver
    registrations and test-registered solvers are inherited by the
    children.
    """
    outcome = SweepOutcome()
    done: dict = {}
    if store is not None and resume:
        done = store.latest()

    pending: List[SweepTask] = []
    for task in tasks:
        prior = done.get(task.key)
        if prior is not None and prior.status not in retry_statuses:
            outcome.results.append(prior)
            outcome.n_skipped += 1
        else:
            pending.append(task)

    def _collect(res: SolveResult) -> None:
        outcome.results.append(res)
        outcome.n_run += 1
        if store is not None:
            store.append(res)
        if on_result is not None:
            on_result(res)

    if workers <= 1 or len(pending) <= 1:
        for task in pending:
            _collect(_run_task(task))
        return outcome

    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=min(workers, len(pending))) as pool:
        for res in pool.imap_unordered(_run_task, pending, chunksize=1):
            _collect(res)
    return outcome


