"""``dp-sweep``: batched and single Multiple-NoD solves, in-process.

Set-up is ``PlacementService()`` with default arguments plus one
warm-up call of each class.  The timed phase repeats the cycle
``batch, single x 4, mesh, single x 4``:

batch
    ``PlacementService.solve_many`` of 64 fresh demand variants of the
    220-node flagship ``random_tree(110, 110, capacity=30, Multiple,
    max_arity=3, seed=3)`` (the threshold-form array path).
single
    ``PlacementService.solve`` of one fresh flagship variant (dense DP).
mesh
    ``PlacementService.solve`` of one fresh Multiple-policy variant of
    ``isp_mesh(6000, capacity=300, seed=3)`` (9544 nodes).

Every op uses fresh variants, so the result cache never hits.  The
schedule keeps each variant as a compact demand array.  An op's
instances are built from it with the clock paused just before the op
and dropped after it, and every set-up build and traced-run probe gets
instances of its own, so no solve finds a layout an earlier one
compiled, and ``peak_rss_mb`` holds the service's memory on top of a
fixed share the benchmark had before set-up (printed as a note).  One
operation counts each solved instance, so a batch counts 64, and
``ops_per_ref_s`` divides them by the summed op time in reference
units (see ``harness``).  The first batch of a
run is re-solved by a sequential ``PlacementService.solve`` loop and
must match it answer for answer.

A shared or virtual CPU can change speed every few seconds, and singles
run back to back all see the same speed, so the cycle splits them
around the second-long mesh solve: a run then samples the single class
at twice as many moments.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

import numpy as np

from harness import (
    OpRecord,
    Outcome,
    RssCheckpoint,
    Tracer,
    layer_function,
    measured,
    perturbed,
    repeated_setup,
    self_rss_mb,
    start_clock,
)

BATCH = 64
PATTERN = ("batch",) + ("single",) * 4 + ("mesh",) + ("single",) * 4
CLASSES = ("batch", "single", "mesh")
#: Pattern repetitions pre-generated, three times what a run uses today.
MAX_CYCLES = 32
#: ``peak_rss_mb`` is read after this many cycles, about half of a run
#: at today's speed (see :class:`RssCheckpoint`).
RSS_AFTER_CYCLES = 5
#: Traced runs re-solve at most this many mesh ops from outside (~1 s each).
MESH_PROBES = 3


class Variants:
    """Fresh demand variants of one base instance, drawn in order."""

    def __init__(self, base, seed: int, stream: int, lo: int, hi: int) -> None:
        from repro.instances import instance_to_dict

        self.wire = instance_to_dict(base)
        self.rng = np.random.default_rng([seed, stream])
        self.lo, self.hi = lo, hi

    def draw(self) -> np.ndarray:
        return np.array(perturbed(self.wire["requests"], self.rng, self.lo, self.hi),
                        dtype=np.int32)

    def request(self, demand: np.ndarray):
        """A ``SolveRequest`` on a newly built instance with ``demand``."""
        from repro.instances import instance_from_dict
        from repro.service import SolveRequest

        return SolveRequest(instance=instance_from_dict(
            dict(self.wire, requests=demand.tolist())))


class Inputs:
    """Warm-up demands and the op schedule, all drawn before timing."""

    def __init__(self, seed: int) -> None:
        from repro.core.policies import Policy
        from repro.instances import isp_mesh, random_tree

        self.flagship = Variants(
            random_tree(110, 110, capacity=30, policy=Policy.MULTIPLE,
                        max_arity=3, seed=3), seed, 19, 1, 30)
        self.mesh = Variants(
            isp_mesh(6000, capacity=300, seed=3, policy=Policy.MULTIPLE),
            seed, 23, 20, 120)
        self.warm = {cls: self.demands(cls) for cls in CLASSES}
        #: ``(op id, class, demand arrays)``
        self.ops = [(k, cls, self.demands(cls))
                    for k, cls in enumerate(PATTERN * MAX_CYCLES)]

    def demands(self, cls: str) -> List[np.ndarray]:
        if cls == "batch":
            return [self.flagship.draw() for _ in range(BATCH)]
        return [(self.mesh if cls == "mesh" else self.flagship).draw()]

    def payload(self, cls: str, demands: List[np.ndarray]):
        """The op's request(s), on instances built for this call."""
        source = self.mesh if cls == "mesh" else self.flagship
        requests = [source.request(d) for d in demands]
        return requests if cls == "batch" else requests[0]


def call(service, cls: str, payload):
    if cls == "batch":
        return service.solve_many(payload)
    return [service.solve(payload)]


def run(workload: str, seed: int, seconds: float, tracer: Optional[Tracer],
        workdir) -> Outcome:
    from repro.service import PlacementService

    outcome = Outcome(workload)
    inputs = Inputs(seed)
    harness_mb = self_rss_mb()

    def prepare() -> Dict[str, object]:
        return {cls: inputs.payload(cls, inputs.warm[cls]) for cls in CLASSES}

    def build(warm: Dict[str, object]):
        service = PlacementService()
        for cls in CLASSES:
            call(service, cls, warm[cls])
        return service

    service = repeated_setup(build, lambda s: s.close(), outcome.setup_s,
                             prepare=prepare)
    probes = SolveProbes(tracer) if tracer is not None else None
    rss = RssCheckpoint(self_rss_mb, len(PATTERN) * RSS_AFTER_CYCLES - 1)
    first_batch = None
    outcome.gauge.read()
    deadline = start_clock() + seconds
    try:
        for op, cls, demands in inputs.ops:
            # Stop only between pattern cycles, so the class mix of a
            # run never depends on where the clock ran out.
            if op % len(PATTERN) == 0 and time.perf_counter() >= deadline:
                break
            # Everything in this iteration but the call itself runs with
            # the clock paused: building the op's instances, probes.
            prep = time.perf_counter()
            payload = inputs.payload(cls, demands)
            if probes is not None:
                probes.before()
            t0 = time.perf_counter()
            responses = call(service, cls, payload)
            t1 = time.perf_counter()
            del payload
            rec = OpRecord(op, cls, t0, t1, weight=len(responses))
            outcome.gauge.read()
            outcome.ops.append(rec)
            rss.after(op)
            bad = [r for r in responses if r.status != "ok"]
            if bad:
                outcome.fail(rec, f"op {op} ({cls}): status {bad[0].status}")
            if cls == "batch" and first_batch is None:
                first_batch = (rec, demands, responses)
            if probes is not None:
                probes.after(rec, lambda: inputs.payload(cls, demands), responses)
            del responses
            deadline += (time.perf_counter() - prep) - (t1 - t0)
        else:
            outcome.schedule_exhausted = True
        outcome.gauge.assign(outcome.ops)
        outcome.peak_rss_mb = rss.final()
        if probes is not None:
            probes.finish(outcome, service)
    finally:
        service.close()
    outcome.notes.append(
        f"peak_rss_mb includes {harness_mb:.1f} MB the benchmark held before "
        "set-up (imports, base instances, demand schedule)")
    if first_batch is None:
        outcome.fail(None, "no batch op ran")
    else:
        rec, demands, responses = first_batch
        check_batch(outcome, rec, inputs.payload("batch", demands), responses)
    return outcome


def check_batch(outcome: Outcome, rec: OpRecord, requests, responses) -> None:
    """The batch must equal a sequential ``solve`` loop, answer for answer."""
    from repro.service import PlacementService

    with PlacementService() as reference:
        for i, (req, got) in enumerate(zip(requests, responses)):
            want = reference.solve(req)
            if (got.status, got.n_replicas, got.placement) != (
                    want.status, want.n_replicas, want.placement):
                outcome.fail(rec, f"batch op {rec.op} item {i}: "
                             f"{got.n_replicas} != sequential {want.n_replicas}")
                return
    outcome.notes.append(
        f"answers: batch op {rec.op} ({len(requests)} instances) equals a "
        "sequential PlacementService.solve loop; every op status ok")


class SolveProbes:
    """Traced-run stages of a solve op, re-run from outside on its inputs."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.fns = {
            "batched.solve_many": layer_function(
                "repro.algorithms.batched", "solve_many"),
            "registry.normalise": layer_function(
                "repro.runner.registry", "result_from_outcome"),
            "multiple_nod_dp.solve": layer_function(
                "repro.algorithms.multiple_nod_dp", "multiple_nod_dp"),
            "validation.check": layer_function(
                "repro.core.validation", "placement_violations"),
            "bounds.lower_bound": layer_function("repro.core.bounds", "lower_bound"),
            "fingerprint.instance": layer_function(
                "repro.service.fingerprint", "instance_fingerprint"),
            "selection.select": layer_function(
                "repro.service.selection", "select_solver"),
            "arrays.compile": layer_function("repro.core.arrays", "FlatTree"),
        }
        self.flat_stats = layer_function("repro.core.arrays", "flat_cache_stats")
        self.samples: Dict[str, Dict[str, List[float]]] = {}
        self._flat0: Dict[str, int] = {}
        self._mesh_probed = 0

    def keep(self, name: str, cls: str, value: float) -> None:
        self.samples.setdefault(name, {}).setdefault(cls, []).append(value)

    def before(self) -> None:
        if self.flat_stats is not None:
            self._flat0 = self.flat_stats()

    def after(self, rec: OpRecord, fresh: Callable[[], object], responses) -> None:
        """Probe one op; ``fresh()`` rebuilds its request(s) on new
        instances, so the probes pay the layout compile the op paid."""
        tr, op, cls = self.tracer, rec.op, rec.cls
        if self.flat_stats is not None:
            flat1 = self.flat_stats()
            self.keep("arrays.flat_compiles", cls,
                      flat1["compiles"] - self._flat0["compiles"])
            self.keep("arrays.flat_hits", cls, flat1["hits"] - self._flat0["hits"])
        tr.record("facade.solve_many" if cls == "batch" else "facade.solve",
                  rec.t0, rec.t1, op=op, cls=cls)
        if cls == "batch":
            self._batch(rec, fresh())
            return
        if cls == "mesh":
            if self._mesh_probed >= MESH_PROBES:
                return
            self._mesh_probed += 1
        diag = responses[0].diagnostics
        self.keep("facade.service", cls, diag.service_ms)
        self.keep("facade.overhead", cls, diag.service_ms - diag.solve_ms)
        self.keep("algorithms.solve", cls, diag.solve_ms)
        instance = fresh().instance
        parent = tr.open("solve_path", op=op, cls=cls)
        for name, args in (
            ("fingerprint.instance", (instance,)),
            ("selection.select", (instance,)),
            ("multiple_nod_dp.solve", (instance,)),
            ("validation.check", (instance, responses[0].placement)),
            ("bounds.lower_bound", (instance,)),
            ("arrays.compile", (instance.tree,)),
        ):
            fn = self.fns[name]
            if fn is not None:
                _r, ms = tr.call(name, fn, *args, op=op, cls=cls, parent=parent)
                self.keep(name, cls, ms)
        tr.close(parent)

    def _batch(self, rec: OpRecord, requests) -> None:
        tr, op, cls = self.tracer, rec.op, rec.cls
        solve_many = self.fns["batched.solve_many"]
        normalise = self.fns["registry.normalise"]
        if solve_many is None or normalise is None:
            return
        instances = [r.instance for r in requests]
        parent = tr.open("batch_path", op=op, cls=cls)
        outcomes, solve_ms = tr.call("batched.solve_many", solve_many, instances,
                                     return_exceptions=True,
                                     op=op, cls=cls, parent=parent)
        _r, norm_ms = tr.call(
            "registry.normalise",
            lambda: [normalise("multiple-nod-dp", inst, out, 0.0,
                               keep_placement=True)
                     for inst, out in zip(instances, outcomes)],
            op=op, cls=cls, parent=parent)
        tr.close(parent)
        self.keep("batched.solve_many", cls, solve_ms)
        self.keep("registry.normalise", cls, norm_ms)
        self.keep("facade.batch_overhead", cls, rec.ms - solve_ms - norm_ms)

    def finish(self, outcome: Outcome, service) -> None:
        for name, cls, metric in (
            ("batched.solve_many", "batch", "batched.solve_many_ms"),
            ("registry.normalise", "batch", "registry.normalise_ms"),
            ("facade.batch_overhead", "batch", "facade.batch_overhead_ms"),
            ("multiple_nod_dp.solve", "single", "multiple_nod_dp.solve_ms"),
            ("multiple_nod_dp.solve", "mesh", "multiple_nod_dp.mesh_ms"),
            ("validation.check", "single", "validation.check_ms"),
            ("bounds.lower_bound", "single", "bounds.lower_bound_ms"),
            ("fingerprint.instance", "single", "fingerprint.instance_ms"),
            ("selection.select", "single", "selection.select_ms"),
            ("arrays.compile", "single", "arrays.compile_ms"),
            ("facade.service", "single", "facade.service_ms"),
            ("facade.overhead", "single", "facade.overhead_ms"),
            ("algorithms.solve", "single", "algorithms.solve_ms"),
            ("arrays.flat_compiles", "single", "arrays.flat_compiles"),
            ("arrays.flat_hits", "single", "arrays.flat_hits"),
        ):
            measured(outcome, metric, self.samples.get(name, {}).get(cls, []))
        stats = service.stats()
        lookups = stats.cache.hits + stats.cache.misses
        outcome.layers["cache.hit_ratio"] = (
            stats.cache.hits / lookups if lookups else 0.0)
        outcome.layers["cache.evictions"] = float(stats.cache.evictions)
        outcome.notes.append(
            f"cache: {stats.cache.hits} hits / {lookups} lookups, "
            f"{stats.cache.evictions} evictions")
        parts = []
        for name in ("facade.service", "algorithms.solve", "multiple_nod_dp.solve",
                     "validation.check", "bounds.lower_bound",
                     "fingerprint.instance", "arrays.flat_compiles"):
            values = self.samples.get(name, {}).get("mesh")
            if values:
                parts.append(f"{name} {np.median(values):.4g}")
        outcome.notes.append("mesh op medians: " + ", ".join(parts))
