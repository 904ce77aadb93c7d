"""``replay-mesh``: the dynamic engine on the 9544-node ISP mesh, in-process.

Set-up loads the mesh (written to JSON by the benchmark) with
``repro.instances.load_instance`` and builds a Single-policy and a
Multiple-policy ``DynamicPlacement``.  The timed phase applies a seeded
schedule of three tick classes, interleaved ``sparse, dense, sparse,
sparse_dp``:

sparse
    ``apply`` of 1-8 demand events on the Single-policy engine.
dense
    ``apply`` of the next ``diurnal+flash`` tick (``repro.replay.make_trace``)
    on the Single-policy engine: every client whose level changed.
sparse_dp
    ``apply`` of 1-8 demand events on the Multiple-policy engine (the
    incremental DP re-fold).  Multiple-policy dense ticks take over a
    second each, too slow to sample, so that engine gets sparse ticks only.

The clock runs only inside ``apply``, so ``ops_per_ref_s`` is ticks per
thousand reference loops of engine time (see ``harness``).  Every tick must be ``ok``.  Every eighth
Single-policy tick, with the clock paused, its cost is compared with
``resolve_full()``; the Multiple-policy engine is compared once at the
end, and ``repro.scenarios.sampled_violations`` audits both final
placements.
"""

from __future__ import annotations

import time
from hashlib import blake2b
from typing import Dict, List, Optional

import numpy as np

from harness import (
    OpRecord,
    Outcome,
    RssCheckpoint,
    Tracer,
    layer_function,
    measured,
    repeated_setup,
    self_rss_mb,
    start_clock,
)

PATTERN = ("sparse", "dense", "sparse", "sparse_dp")
#: Pattern repetitions pre-generated: four times what a run uses today,
#: so the schedule lasts even if ticks get much cheaper.
MAX_CYCLES = 160
#: ``peak_rss_mb`` is read after this many cycles, about half of a run
#: at today's speed (see :class:`RssCheckpoint`).
RSS_AFTER_CYCLES = 16
#: Single-policy ticks between two paused ``resolve_full`` checks.
CHECK_EVERY = 8
TRACE = "diurnal+flash"


def write_meshes(workdir) -> Dict[str, str]:
    """The Single- and Multiple-policy meshes as JSON instance files."""
    from repro.core.policies import Policy
    from repro.instances import dump_instance, isp_mesh

    paths = {}
    for name, policy in (("single", Policy.SINGLE), ("multiple", Policy.MULTIPLE)):
        path = str(workdir / f"mesh-{name}.json")
        dump_instance(isp_mesh(6000, capacity=300, seed=3, policy=policy), path)
        paths[name] = path
    return paths


def make_schedule(base: np.ndarray, capacity: int, seed: int) -> List[tuple]:
    """``(op id, class, client indices, levels)`` for :data:`MAX_CYCLES`
    pattern cycles.

    Demand is tracked per engine while the schedule is built, so each
    dense tick carries exactly the clients whose level differs from the
    engine's state at that point.  Ticks are kept as arrays (a dense one
    changes ~6000 clients) and become event lists just before they run.
    """
    from repro.replay import make_trace

    dense_ticks = MAX_CYCLES * PATTERN.count("dense")
    levels = make_trace(TRACE, n_clients=len(base), horizon=dense_ticks,
                        seed=seed).levels(base, capacity=capacity)
    rng = np.random.default_rng([seed, 17])
    state = {"single": base.copy(), "multiple": base.copy()}
    ops = []
    tick = 0
    for _cycle in range(MAX_CYCLES):
        for cls in PATTERN:
            if cls == "dense":
                cur = state["single"]
                changed = np.nonzero(levels[tick] != cur)[0]
                new = levels[tick, changed]
                tick += 1
            else:
                cur = state["single" if cls == "sparse" else "multiple"]
                k = int(rng.integers(1, 9))
                changed = rng.choice(len(base), size=k, replace=False)
                new = rng.integers(20, 121, size=k)
                new[new == cur[changed]] += 1
            cur[changed] = new
            ops.append((len(ops), cls, changed.astype(np.int32),
                        new.astype(np.int32)))
    return ops


def run(workload: str, seed: int, seconds: float, tracer: Optional[Tracer],
        workdir) -> Outcome:
    from repro.dynamic import DemandEvent, DynamicPlacement
    from repro.instances import load_instance
    from repro.scenarios import sampled_violations

    outcome = Outcome(workload)
    paths = write_meshes(workdir)
    base_inst = load_instance(paths["single"])
    clients = list(base_inst.tree.clients)
    base = np.array([base_inst.tree.requests(c) for c in clients], dtype=np.int64)
    ops = make_schedule(base, base_inst.capacity, seed)
    del base_inst

    def build():
        return (DynamicPlacement(load_instance(paths["single"])),
                DynamicPlacement(load_instance(paths["multiple"])))

    single, multiple = repeated_setup(build, lambda _engines: None,
                                      outcome.setup_s)
    probes = TickProbes(tracer) if tracer is not None else None
    rss = RssCheckpoint(self_rss_mb, len(PATTERN) * RSS_AFTER_CYCLES - 1)
    costs: List[int] = []
    single_ticks = 0
    outcome.gauge.read()
    deadline = start_clock() + seconds
    for op, cls, idx, levels in ops:
        # Stop only between pattern cycles, so the class mix of a run
        # never depends on where the clock ran out.
        if op % len(PATTERN) == 0 and time.perf_counter() >= deadline:
            break
        # Everything in this iteration but ``apply`` itself runs with the
        # clock paused: building the event list, probes and checks.
        prep = time.perf_counter()
        events = [DemandEvent(clients[i], level)
                  for i, level in zip(idx.tolist(), levels.tolist())]
        engine = multiple if cls == "sparse_dp" else single
        if probes is not None:
            probes.before(engine)
        t0 = time.perf_counter()
        result = engine.apply(events)
        t1 = time.perf_counter()
        rec = OpRecord(op, cls, t0, t1)
        outcome.gauge.read()
        outcome.ops.append(rec)
        costs.append(result.cost if result.ok else -1)
        rss.after(op)
        if not result.ok:
            outcome.fail(rec, f"tick {op} ({cls}) failed: {result.error}")
        else:
            if probes is not None:
                probes.after(rec, events, result)
            if cls != "sparse_dp":
                single_ticks += 1
                if single_ticks % CHECK_EVERY == 0:
                    check_cost(outcome, rec, engine, result.cost)
        pause = (time.perf_counter() - prep) - (t1 - t0)
        deadline += pause
    else:
        outcome.schedule_exhausted = True
    outcome.gauge.assign(outcome.ops)
    outcome.peak_rss_mb = rss.final()

    if outcome.ops:
        last_dp = [r for r in outcome.ops if r.cls == "sparse_dp"]
        if last_dp:
            check_cost(outcome, last_dp[-1], multiple,
                       multiple.placement.n_replicas)
    for name, engine in (("single", single), ("multiple", multiple)):
        found = sampled_violations(engine.instance, engine.placement, seed=seed,
                                   cell=f"final {name}", solver=engine.solver_name)
        for v in found:
            outcome.fail(None, f"final {name} placement: {v}")
    digest = blake2b(repr(costs).encode(), digest_size=8).hexdigest()
    outcome.notes.append(
        f"per-tick cost sequence: {len(costs)} ticks, fingerprint {digest}")
    outcome.notes.append(
        f"resolve_full checks: {single_ticks // CHECK_EVERY} single-policy "
        "ticks, 1 multiple-policy tick; sampled_violations on both final "
        "placements")
    if probes is not None:
        probes.finish(outcome, (single, multiple))
    return outcome


def check_cost(outcome: Outcome, rec: OpRecord, engine, cost: int) -> None:
    placement, _secs = engine.resolve_full()
    if placement is None or placement.n_replicas != cost:
        got = None if placement is None else placement.n_replicas
        outcome.fail(rec, f"tick {rec.op} ({rec.cls}): cost {cost} != "
                     f"resolve_full {got}")


class TickProbes:
    """Traced-run stages of a tick, re-run from outside on its inputs.

    With the clock paused after each tick: fold the same batch into the
    pre-tick instance, compile the fresh tree, fingerprint it, and read
    the repair statistics the engine returned.
    """

    STAGES = (
        ("events.fold", "repro.dynamic", "apply_events_batch"),
        ("arrays.compile", "repro.core.arrays", "flat_tree"),
        ("fingerprints.subtree", "repro.dynamic", "subtree_fingerprints"),
        ("fingerprints.root", "repro.dynamic", "root_fingerprint"),
    )

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.fns = {name: layer_function(mod, attr)
                    for name, mod, attr in self.STAGES}
        self.salt = layer_function("repro.dynamic", "instance_salt")
        self.flat_stats = layer_function("repro.core.arrays", "flat_cache_stats")
        self.samples: Dict[str, Dict[str, List[float]]] = {}
        self._pre = None
        self._failed = frozenset()
        self._flat0: Dict[str, int] = {}

    def keep(self, name: str, cls: str, value: float) -> None:
        self.samples.setdefault(name, {}).setdefault(cls, []).append(value)

    def before(self, engine) -> None:
        self._pre = engine.instance
        self._failed = engine.failed_hosts
        if self.flat_stats is not None:
            self._flat0 = self.flat_stats()

    def after(self, rec: OpRecord, events, result) -> None:
        if self.flat_stats is not None:
            flat1 = self.flat_stats()
            self.keep("arrays.flat_compiles", rec.cls,
                      flat1["compiles"] - self._flat0["compiles"])
            self.keep("arrays.flat_hits", rec.cls, flat1["hits"] - self._flat0["hits"])
        tr, op, cls = self.tracer, rec.op, rec.cls
        tr.record("engine.apply", rec.t0, rec.t1, op=op, cls=cls)
        self.keep("engine.apply", cls, rec.ms)
        self.keep("incremental.nodes_recomputed", cls, result.stats.nodes_recomputed)
        self.keep("incremental.reuse_fraction", cls, result.stats.reuse_fraction)
        self.keep("incremental.nodes_total", cls, result.stats.nodes_total)
        parent = tr.open("tick_path", op=op, cls=cls)
        staged = 0.0
        fold, compile_, subtree, root = (self.fns[s[0]] for s in self.STAGES)
        if fold is not None:
            (new, _failed), ms = tr.call("events.fold", fold, self._pre, events,
                                         op=op, cls=cls, parent=parent)
            self.keep("events.fold", cls, ms)
            staged += ms
            if compile_ is not None:
                _ft, ms = tr.call("arrays.compile", compile_, new.tree,
                                  op=op, cls=cls, parent=parent)
                self.keep("arrays.compile", cls, ms)
                staged += ms
            if subtree is not None and self.salt is not None:
                _fps, ms = tr.call("fingerprints.subtree", subtree, new.tree,
                                   self.salt(new), self._failed,
                                   op=op, cls=cls, parent=parent)
                self.keep("fingerprints.subtree", cls, ms)
                staged += ms
            if root is not None:
                _fp, ms = tr.call("fingerprints.root", root, new, self._failed,
                                  op=op, cls=cls, parent=parent)
                self.keep("fingerprints.root", cls, ms)
                staged += ms
        tr.close(parent)
        self.keep("engine.remainder", cls, rec.ms - staged)
        self._pre = None

    def finish(self, outcome: Outcome, engines) -> None:
        for name in ("events.fold", "arrays.compile", "fingerprints.subtree",
                     "fingerprints.root", "engine.apply", "engine.remainder"):
            measured(outcome, name + "_ms", self.samples.get(name, {}).get("sparse", []))
        for name in ("incremental.nodes_recomputed", "incremental.reuse_fraction",
                     "arrays.flat_compiles", "arrays.flat_hits"):
            measured(outcome, name, self.samples.get(name, {}).get("sparse", []))
        sparse = self.samples.get("incremental.nodes_total", {}).get("sparse")
        if sparse:
            outcome.notes.append(
                "incremental.reuse_fraction base: nodes reused / "
                f"{int(np.median(sparse))} nodes per sparse tick")
        outcome.layers["engine.fallbacks"] = float(
            sum(engine.stats().fallbacks for engine in engines))
        for cls in ("dense", "sparse_dp"):
            parts = []
            for name in ("engine.apply", "events.fold", "arrays.compile",
                         "fingerprints.subtree", "fingerprints.root",
                         "engine.remainder", "incremental.nodes_recomputed"):
                values = self.samples.get(name, {}).get(cls)
                if values:
                    parts.append(f"{name} {np.median(values):.4g}")
            outcome.notes.append(f"{cls} tick medians: " + ", ".join(parts))
