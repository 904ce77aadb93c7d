"""``serve-mesh``: the service over keep-alive HTTP, behind the router.

``repro cluster --workers 2 --data-root <fresh>``, driven in a closed
loop over one keep-alive ``http.client`` connection to the router.
Requests are demand variants of ``isp_mesh(n_pops=6000, capacity=300,
seed=3)`` (9544 nodes, Single NoD, so auto-selection picks single-nod).

Every instance is sent as the cycle ``miss, hit, hit, lean_hit``
(``lean_hit`` is a hit with ``include_assignments=false``), so each
request's cache class is fixed by the schedule.  Bodies are encoded
before the clock starts; each latency ends at the last response byte,
the reference loop runs between responses with the clock paused, and
JSON is parsed after the timed phase.  Each latency is divided by the
loop's mean time over the whole run (see ``harness.Gauge``).
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlparse

import numpy as np

from harness import (
    BenchError,
    Gauge,
    OpRecord,
    Outcome,
    RssCheckpoint,
    Spawned,
    Tracer,
    child_pids,
    layer_function,
    measured,
    p50,
    perturbed,
    repeated_setup,
    start_clock,
    vm_hwm_mb,
)

CYCLE = ("miss", "hit", "hit", "lean_hit")
WORKER_HEADER = "X-Repro-Worker"
HEADERS = {"Content-Type": "application/json"}

#: Distinct instances pre-generated per run, twice what a 20 s run uses
#: today; a run that uses them all says so in its output.
MESH_VARIANTS = 72
#: ``peak_rss_mb`` is read after this many instances' cycles, about half
#: of a run at today's speed (see :class:`RssCheckpoint`).
RSS_AFTER_VARIANTS = 16
#: Traced runs replay the request path of at most this many ops per class.
PROBES_PER_CLASS = 48
#: Requests sent per side when timing the router hop.
HOP_SAMPLES = 8


# -- inputs -----------------------------------------------------------------
class Variant:
    """One distinct instance: its wire dict and both request bodies."""

    __slots__ = ("idx", "instance_wire", "full", "lean")

    def __init__(self, idx: int, instance_wire: dict) -> None:
        self.idx = idx
        self.instance_wire = instance_wire
        envelope = {"schema": 1, "instance": instance_wire, "solver": None,
                    "budget": None, "include_assignments": True,
                    "request_id": None}
        self.full = json.dumps(envelope).encode("utf-8")
        envelope["include_assignments"] = False
        self.lean = json.dumps(envelope).encode("utf-8")


def mesh_base() -> dict:
    from repro.instances import instance_to_dict, isp_mesh

    return instance_to_dict(isp_mesh(6000, capacity=300, seed=3))


def mesh_variants(seed: int, count: int) -> List[Variant]:
    """Variants of the 9544-node mesh (see :func:`perturbed`)."""
    base = mesh_base()
    rng = np.random.default_rng([seed, 13])
    return [Variant(k, dict(base, requests=perturbed(base["requests"], rng, 20, 120)))
            for k in range(count)]


def schedule(variants: Sequence[Variant]) -> List[tuple]:
    """``(op id, class, variant, body)`` in send order."""
    ops = []
    for v in variants:
        for cls in CYCLE:
            ops.append((len(ops), cls, v, v.lean if cls == "lean_hit" else v.full))
    return ops


def warmup_bodies() -> List[bytes]:
    """Small fixed instances outside every schedule, for first calls."""
    from repro.cluster.loadtest import MIXES
    from repro.instances import instance_to_dict, make_instance

    out = []
    for spec in MIXES["quick"] + MIXES["scenario"]:
        wire = {"schema": 1, "instance": instance_to_dict(make_instance(spec)),
                "solver": None, "budget": None, "include_assignments": True,
                "request_id": None}
        out.append(json.dumps(wire).encode("utf-8"))
    return out


# -- HTTP ---------------------------------------------------------------------
def connect(url: str) -> http.client.HTTPConnection:
    parsed = urlparse(url)
    return http.client.HTTPConnection(parsed.hostname, parsed.port, timeout=120)


def post(conn: http.client.HTTPConnection, body: bytes):
    """One keep-alive POST; ``(t0, t1, status, worker, data)``."""
    t0 = time.perf_counter()
    conn.request("POST", "/v1/solve", body=body, headers=HEADERS)
    resp = conn.getresponse()
    data = resp.read()
    t1 = time.perf_counter()
    return t0, t1, resp.status, resp.getheader(WORKER_HEADER), data


def get_json(url: str, path: str) -> dict:
    conn = connect(url)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        data = resp.read()
        if resp.status != 200:
            raise BenchError(f"GET {url}{path} answered HTTP {resp.status}")
        return json.loads(data)
    finally:
        conn.close()


def wait_healthy(url: str, workers: int = 0, timeout: float = 60.0) -> dict:
    deadline = time.monotonic() + timeout
    while True:
        try:
            health = get_json(url, "/v1/healthz")
            alive = health.get("ring", {}).get("workers_alive", workers)
            if health.get("status") == "ok" and alive >= workers:
                return health
        except (OSError, http.client.HTTPException, BenchError):
            pass
        if time.monotonic() > deadline:
            raise BenchError(f"{url} never reported healthy")
        time.sleep(0.01)


# -- deployments ----------------------------------------------------------------
class Deployment:
    """A started cluster, healthy and warmed up."""

    def __init__(self, proc: Spawned, url: str) -> None:
        self.proc = proc
        self.url = url
        #: The router and its workers.
        self.pids = [proc.pid] + child_pids(proc.pid)

    def rss_mb(self) -> float:
        return sum(vm_hwm_mb(pid) for pid in self.pids)

    def stop(self, graceful: bool = True) -> None:
        self.proc.stop(graceful=graceful)


def start_cluster(data_root: str, warm: Sequence[bytes]) -> Deployment:
    proc = Spawned(
        ["cluster", "--host", "127.0.0.1", "--port", "0", "--workers", "2",
         "--data-root", data_root],
        r"router listening on (http://[\d.]+:\d+)",
    )
    try:
        wait_healthy(proc.address, workers=2)
        # Warm every worker: routing is by content, so send fixed small
        # instances until each worker has answered one.
        served = set()
        conn = connect(proc.address)
        for body in warm:
            _t0, _t1, status, worker, _data = post(conn, body)
            if status != 200:
                raise BenchError(f"warm-up request answered HTTP {status}")
            served.add(worker)
            if len(served) == 2:
                break
        conn.close()
        if len(served) < 2:
            raise BenchError("warm-up never reached both workers")
    except BaseException:
        proc.stop()
        raise
    return Deployment(proc, proc.address)


# -- the timed phase --------------------------------------------------------------
def timed_phase(dep: Deployment, ops: Sequence[tuple], seconds: float,
                rss: RssCheckpoint, gauge: Gauge):
    """Closed loop over one keep-alive connection; ``(rows, exhausted)``.

    The clock stops while the gauge reads, so ``seconds`` is time spent
    waiting for the servers.
    """
    out: List[tuple] = []
    conn = connect(dep.url)
    conn.connect()
    gauge.read()
    deadline = start_clock() + seconds
    try:
        for op, cls, variant, body in ops:
            # Stop only between cycles, so every run sends whole cycles
            # and the class mix never depends on where the clock ran out.
            if cls == CYCLE[0] and time.perf_counter() >= deadline:
                break
            try:
                t0, t1, status, worker, data = post(conn, body)
            except (OSError, http.client.HTTPException) as exc:
                t0 = t1 = time.perf_counter()
                status, worker, data = None, None, repr(exc).encode()
                conn.close()
                conn = connect(dep.url)
            gauge.read()
            out.append((op, cls, variant, body, t0, t1, status, worker, data))
            rss.after(op)
            deadline += time.perf_counter() - t1
    finally:
        conn.close()
    return out, len(out) == len(ops)


# -- answer checks ----------------------------------------------------------------
def check_answers(outcome: Outcome, rows: Sequence[tuple]) -> Dict[int, dict]:
    """Fail every op whose answer or cache class is wrong; returns the
    parsed responses by op id."""
    from repro.core.validation import placement_violations
    from repro.instances import instance_from_dict, placement_from_dict
    from repro.service import PlacementService, SolveRequest

    parsed: Dict[int, dict] = {}
    by_variant: Dict[int, List[Tuple[OpRecord, dict]]] = {}
    variants = {}
    for row in rows:
        op, cls, variant, _body, t0, t1, status, _worker, data = row
        rec = OpRecord(op, cls, t0, t1)
        outcome.ops.append(rec)
        if status is None:
            outcome.fail(rec, f"op {op}: transport error {data.decode()}")
            continue
        if status != 200:
            outcome.fail(rec, f"op {op}: HTTP {status}")
            continue
        resp = json.loads(data)
        parsed[op] = resp
        if resp.get("status") != "ok":
            outcome.fail(rec, f"op {op}: status {resp.get('status')}")
            continue
        hit = bool((resp.get("diagnostics") or {}).get("cache_hit"))
        if hit != (cls != "miss"):
            outcome.fail(rec, f"op {op}: {cls} answered with cache_hit={hit}")
        if (resp.get("placement") is None) != (cls == "lean_hit"):
            outcome.fail(rec, f"op {op}: {cls} placement presence is wrong")
        by_variant.setdefault(variant.idx, []).append((rec, resp))
        variants[variant.idx] = variant

    reference = PlacementService()
    checked = 0
    for idx, answers in by_variant.items():
        instance = instance_from_dict(variants[idx].instance_wire)
        want = reference.solve(SolveRequest(instance=instance)).n_replicas
        distinct: Dict[str, Tuple[OpRecord, dict]] = {}
        for rec, resp in answers:
            if resp.get("n_replicas") != want:
                outcome.fail(rec, f"op {rec.op}: n_replicas "
                             f"{resp.get('n_replicas')} != in-process {want}")
            if resp.get("placement") is not None:
                key = json.dumps(resp["placement"], sort_keys=True)
                distinct.setdefault(key, (rec, resp))
        for rec, resp in distinct.values():
            problems = placement_violations(
                instance, placement_from_dict(resp["placement"]))
            checked += 1
            if problems:
                outcome.fail(rec, f"op {rec.op}: invalid placement: {problems[0]}")
    outcome.notes.append(
        f"answers: {len(by_variant)} instances solved in-process for "
        f"reference, {checked} distinct placements checked")
    return parsed


# -- traced-run probes ----------------------------------------------------------
def health_layers(outcome: Outcome, dep: Deployment) -> None:
    """Cache, storage and router counters the servers already report."""
    health = get_json(dep.url, "/v1/healthz")
    outcome.layers["router.retries"] = float(
        sum(w["retries"] for w in health["workers"]))
    stats = [get_json(w["url"], "/v1/healthz")["stats"]
             for w in health["workers"]]
    hits = sum(s["cache"]["hits"] for s in stats)
    requests = sum(s["requests"] for s in stats)
    outcome.layers["cache.hit_ratio"] = hits / requests if requests else 0.0
    outcome.layers["cache.evictions"] = float(
        sum(s["cache"]["evictions"] for s in stats))
    outcome.notes.append(f"cache: {hits} hits / {requests} requests")
    for key, name in (("wal_bytes", "storage.wal_bytes"),
                      ("records_appended", "storage.records_appended"),
                      ("snapshots_written", "storage.snapshots_written")):
        outcome.layers[name] = float(sum(s["durability"][key] for s in stats))


def hop_layers(outcome: Outcome, dep: Deployment, body: bytes) -> None:
    """Router hop: the same cached request via the router and straight
    to the worker it names, alternating sides."""
    router = connect(dep.url)
    via, direct, wire = [], [], []
    try:
        _t0, _t1, status, worker, _data = post(router, body)
        if status != 200 or worker is None:
            raise BenchError("hop probe: router did not name a worker")
        worker_url = {w["node_id"]: w["url"] for w in
                      get_json(dep.url, "/v1/healthz")["workers"]}[worker]
        straight = connect(worker_url)
        try:
            for _ in range(HOP_SAMPLES):
                t0, t1, _s, _w, _d = post(router, body)
                via.append((t1 - t0) * 1e3)
                t0, t1, _s, _w, data = post(straight, body)
                direct.append((t1 - t0) * 1e3)
                wire.append(direct[-1] - json.loads(data)["diagnostics"]["service_ms"])
        finally:
            straight.close()
    finally:
        router.close()
    outcome.layers["router.hop_ms"] = p50(via) - p50(direct)
    measured(outcome, "daemon.wire_ms", wire)
    outcome.notes.append(
        f"router hop: via router p50 {p50(via):.2f} ms, straight to "
        f"{worker} p50 {p50(direct):.2f} ms ({HOP_SAMPLES} each)")


def probe_request_path(outcome: Outcome, tracer: Tracer, rows: Sequence[tuple],
                       parsed: Dict[int, dict], scratch: str) -> None:
    """Replay each probed op's request path stage by stage in-process,
    on the op's own request and response bodies."""
    fns = {
        "schema.decode": layer_function("repro.service.schema", "SolveRequest"),
        "schema.encode": layer_function("repro.service.schema", "SolveResponse"),
        "fingerprint.instance": layer_function(
            "repro.service.fingerprint", "instance_fingerprint"),
        "selection.select": layer_function(
            "repro.service.selection", "select_solver"),
        "validation.check": layer_function(
            "repro.core.validation", "placement_violations"),
        "bounds.lower_bound": layer_function("repro.core.bounds", "lower_bound"),
        "storage.append": layer_function("repro.storage", "StateStore"),
    }
    CachePut = layer_function("repro.storage", "CachePut")
    placement_from_dict = layer_function("repro.instances", "placement_from_dict")
    store = None
    if fns["storage.append"] is not None and CachePut is not None:
        store = fns["storage.append"](scratch, snapshot_interval=0)
        store.recover()
    samples: Dict[str, Dict[str, List[float]]] = {}

    def keep(stage: str, cls: str, ms: float) -> None:
        samples.setdefault(stage, {}).setdefault(cls, []).append(ms)

    probed: Dict[str, int] = {}
    for op, cls, _variant, body, t0, t1, _status, _worker, data in rows:
        resp = parsed.get(op)
        if resp is None or probed.get(cls, 0) >= PROBES_PER_CLASS:
            continue
        probed[cls] = probed.get(cls, 0) + 1
        tracer.record("client.request", t0, t1, op=op, cls=cls)
        diag = resp.get("diagnostics") or {}
        keep("request_kb", cls, len(body) / 1024)
        keep("response_kb", cls, len(data) / 1024)
        if cls == "miss":
            keep("service_ms", cls, diag.get("service_ms", 0.0))
            keep("solve_ms", cls, diag.get("solve_ms", 0.0))
            keep("overhead_ms", cls, diag.get("service_ms", 0.0)
                 - diag.get("solve_ms", 0.0))
        parent = tracer.open("request_path", op=op, cls=cls)
        request = None
        if fns["schema.decode"] is not None:
            request, ms = tracer.call(
                "schema.decode",
                lambda b: fns["schema.decode"].from_wire(json.loads(b)), body,
                op=op, cls=cls, parent=parent)
            keep("schema.decode", cls, ms)
        instance = request.instance if request is not None else None
        inst_fp = None
        if instance is not None and fns["fingerprint.instance"] is not None:
            inst_fp, ms = tracer.call("fingerprint.instance",
                                      fns["fingerprint.instance"], instance,
                                      op=op, cls=cls, parent=parent)
            keep("fingerprint.instance", cls, ms)
        if cls == "miss" and instance is not None:
            for stage in ("selection.select", "bounds.lower_bound"):
                if fns[stage] is not None:
                    _r, ms = tracer.call(stage, fns[stage], instance,
                                         op=op, cls=cls, parent=parent)
                    keep(stage, cls, ms)
            if fns["validation.check"] is not None and placement_from_dict:
                placement = placement_from_dict(resp["placement"])
                _r, ms = tracer.call("validation.check", fns["validation.check"],
                                     instance, placement,
                                     op=op, cls=cls, parent=parent)
                keep("validation.check", cls, ms)
            if store is not None:
                record = CachePut(key=diag.get("fingerprint", ""),
                                  instance_fp=inst_fp or "", response=resp)
                _r, ms = tracer.call("storage.append", store.append, record,
                                     op=op, cls=cls, parent=parent)
                keep("storage.append", cls, ms)
        if fns["schema.encode"] is not None:
            response = fns["schema.encode"].from_wire(resp)
            _r, ms = tracer.call(
                "schema.encode", lambda r: json.dumps(r.to_wire()).encode(),
                response, op=op, cls=cls, parent=parent)
            keep("schema.encode", cls, ms)
        tracer.close(parent)
    if store is not None:
        store.close()

    for name, stage, cls in (
        ("schema.decode_ms", "schema.decode", "hit"),
        ("schema.encode_ms", "schema.encode", "hit"),
        ("schema.request_kb", "request_kb", "hit"),
        ("schema.response_kb", "response_kb", "hit"),
        ("fingerprint.instance_ms", "fingerprint.instance", "hit"),
        ("selection.select_ms", "selection.select", "miss"),
        ("validation.check_ms", "validation.check", "miss"),
        ("bounds.lower_bound_ms", "bounds.lower_bound", "miss"),
        ("storage.append_ms", "storage.append", "miss"),
        ("facade.service_ms", "service_ms", "miss"),
        ("facade.overhead_ms", "overhead_ms", "miss"),
        ("algorithms.solve_ms", "solve_ms", "miss"),
    ):
        measured(outcome, name, samples.get(stage, {}).get(cls, []))
    solvers: Dict[str, List[float]] = {}
    for op, cls, *_rest in rows:
        resp = parsed.get(op)
        if cls == "miss" and resp is not None and resp.get("solver"):
            solvers.setdefault(resp["solver"], []).append(
                resp["diagnostics"]["solve_ms"])
    outcome.notes.append("algorithms.solve_ms per solver: " + ", ".join(
        f"{name} {p50(v):.3f} ms (n={len(v)})" for name, v in sorted(solvers.items())))


# -- workload ---------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float, tracer: Optional[Tracer],
        workdir) -> Outcome:
    # The router and workers run on either core, so the reference loop in
    # this process relates to their speed only over the whole run.
    outcome = Outcome(workload, gauge=Gauge(window_s=None))
    variants = mesh_variants(seed, MESH_VARIANTS)
    ops = schedule(variants)
    warm = warmup_bodies()
    counter = iter(range(1_000_000))

    def build() -> Deployment:
        return start_cluster(str(workdir / f"data-{next(counter)}"), warm)

    dep = repeated_setup(build, lambda d: d.stop(graceful=False), outcome.setup_s)
    try:
        rss = RssCheckpoint(dep.rss_mb, len(CYCLE) * RSS_AFTER_VARIANTS - 1)
        rows, outcome.schedule_exhausted = timed_phase(
            dep, ops, seconds, rss, outcome.gauge)
        outcome.peak_rss_mb = rss.final()
        if tracer is not None:
            health_layers(outcome, dep)
            hop_layers(outcome, dep, variants[0].full)
    finally:
        dep.stop()
    parsed = check_answers(outcome, rows)
    outcome.gauge.assign(outcome.ops)
    if tracer is not None:
        probe_request_path(outcome, tracer, rows, parsed, str(workdir / "probe-store"))
    return outcome
