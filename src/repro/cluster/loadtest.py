"""``repro loadtest`` — deterministic concurrent load against a cluster.

The load generator turns "millions of users" from a slogan into a
measured number: it drives a router (or a single daemon — they speak
the same protocol) with a *seeded, reproducible* request mix and
reports client-side p50/p99 latency, error rate, throughput and
cache-hit throughput, per worker and in aggregate.

Determinism contract (test-gated in ``tests/test_cluster_loadtest.py``):
``request_mix(seed, n, mix)`` produces the identical sequence of
request fingerprints on every machine and process — instances come from
:data:`repro.instances.GENERATORS` specs with pinned seeds, repetition
comes from a seeded Zipf-style draw (so result caches see realistic
re-request traffic), and nothing depends on wall clock, PYTHONHASHSEED
or thread scheduling.  Only the *latencies* vary between runs; the
*work* never does.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.parse
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from random import Random
from typing import Dict, List

from ..instances import make_instance
from ..service.facade import percentile
from ..service.fingerprint import instance_fingerprint
from ..service.httpjson import WORKER_HEADER
from ..service.schema import SolveRequest

__all__ = [
    "MIXES",
    "LoadRequest",
    "LoadTestReport",
    "WorkerSlice",
    "request_mix",
    "run_loadtest",
]

#: Named request mixes: a pool of generator specs each mix draws from.
#: Sizes are service-shaped — thousands of small solves, not one huge
#: one — and every spec pins its own seed so the pool is reproducible.
MIXES: Dict[str, List[dict]] = {
    # The default mix: varied small topologies across both policies.
    "default": [
        {"kind": "random_tree", "n_internal": 8, "n_clients": 16,
         "capacity": 12, "dmax": 6.0, "seed": 101},
        {"kind": "random_tree", "n_internal": 10, "n_clients": 20,
         "capacity": 16, "dmax": 7.0, "seed": 102},
        {"kind": "random_tree", "n_internal": 6, "n_clients": 14,
         "capacity": 10, "dmax": 5.0, "policy": "multiple", "seed": 103},
        {"kind": "caterpillar", "length": 12, "capacity": 9,
         "dmax": 6.0, "seed": 104},
        {"kind": "broom", "handle": 5, "n_clients": 12, "capacity": 8,
         "dmax": 5.0, "seed": 105},
        {"kind": "star", "n_clients": 18, "capacity": 9, "seed": 106},
        {"kind": "random_binary_tree", "n_internal": 9, "n_clients": 10,
         "capacity": 14, "dmax": 8.0, "seed": 107},
        {"kind": "random_tree", "n_internal": 7, "n_clients": 15,
         "capacity": 11, "dmax": 6.0, "policy": "multiple", "seed": 108},
        {"kind": "caterpillar", "length": 9, "capacity": 7,
         "dmax": 5.0, "seed": 109},
        {"kind": "broom", "handle": 6, "n_clients": 10, "capacity": 7,
         "dmax": 4.0, "seed": 110},
        {"kind": "star", "n_clients": 14, "capacity": 7, "seed": 111},
        {"kind": "random_tree", "n_internal": 12, "n_clients": 24,
         "capacity": 18, "dmax": 8.0, "seed": 112},
    ],
    # Adversarial topologies from the scenario library.
    "scenario": [
        {"kind": "scenario", "family": "star/uniform", "size": 16,
         "capacity": 8, "seed": 1},
        {"kind": "scenario", "family": "star/zipf", "size": 16,
         "capacity": 8, "seed": 2},
        {"kind": "scenario", "family": "caterpillar/uniform", "size": 16,
         "capacity": 10, "dmax": 8.0, "seed": 3},
        {"kind": "scenario", "family": "broom/heavy_tailed", "size": 16,
         "capacity": 12, "seed": 4},
        {"kind": "scenario", "family": "deep_chain/uniform", "size": 12,
         "capacity": 10, "dmax": 10.0, "seed": 5},
        {"kind": "scenario", "family": "random_attachment/zipf", "size": 16,
         "capacity": 12, "seed": 6},
    ],
    # Tiny pool for smoke runs: high repetition, high cache-hit rate.
    "quick": [
        {"kind": "random_tree", "n_internal": 5, "n_clients": 10,
         "capacity": 8, "dmax": 5.0, "seed": 201},
        {"kind": "caterpillar", "length": 7, "capacity": 6,
         "dmax": 5.0, "seed": 202},
        {"kind": "star", "n_clients": 12, "capacity": 6, "seed": 203},
        {"kind": "broom", "handle": 4, "n_clients": 8, "capacity": 6,
         "dmax": 4.0, "seed": 204},
    ],
}


@dataclass(frozen=True)
class LoadRequest:
    """One request of the mix: spec, fingerprint and wire payload."""

    index: int
    spec: dict
    instance_fp: str
    wire: dict


def request_mix(
    seed: int, n_requests: int, mix: str = "default"
) -> List[LoadRequest]:
    """The deterministic request sequence for ``(seed, n_requests, mix)``.

    Draws from the mix's spec pool with a Zipf-style bias (spec ``i``
    of the shuffled pool has weight ``1/(i+1)``), so a minority of
    instances dominates the traffic — the shape that makes result
    caches and consistent-hash shard affinity measurable.  Everything
    is derived from ``seed`` via :class:`random.Random`; wall clock and
    process identity never participate.
    """
    try:
        pool_specs = MIXES[mix]
    except KeyError:
        known = ", ".join(sorted(MIXES))
        raise KeyError(f"unknown mix {mix!r}; known: {known}") from None
    rng = Random(seed)
    order = list(range(len(pool_specs)))
    rng.shuffle(order)
    weights = [1.0 / (rank + 1) for rank in range(len(order))]
    # Fingerprint each pool entry once; requests reuse the wire dicts.
    pool = []
    for pos in order:
        spec = dict(pool_specs[pos])
        instance = make_instance(spec)
        pool.append((
            spec,
            instance_fingerprint(instance),
            SolveRequest(instance=instance).to_wire(),
        ))
    choices = rng.choices(range(len(pool)), weights=weights, k=n_requests)
    return [
        LoadRequest(index=i, spec=pool[c][0], instance_fp=pool[c][1],
                    wire=pool[c][2])
        for i, c in enumerate(choices)
    ]


@dataclass
class WorkerSlice:
    """Per-worker attribution of the load (from the router's header)."""

    requests: int = 0
    cache_hits: int = 0
    errors: int = 0
    latency_ms_sum: float = 0.0

    @property
    def latency_ms_mean(self) -> float:
        return self.latency_ms_sum / self.requests if self.requests else 0.0

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "cache_hits": self.cache_hits,
            "errors": self.errors,
            "latency_ms_mean": self.latency_ms_mean,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorkerSlice":
        out = cls(
            requests=int(data.get("requests", 0)),
            cache_hits=int(data.get("cache_hits", 0)),
            errors=int(data.get("errors", 0)),
        )
        out.latency_ms_sum = (
            float(data.get("latency_ms_mean", 0.0)) * out.requests
        )
        return out


@dataclass
class LoadTestReport:
    """Everything ``repro loadtest`` measured, JSON round-trippable."""

    url: str
    mix: str
    seed: int
    n_requests: int
    concurrency: int
    wall_s: float = 0.0
    ok: int = 0
    failed: int = 0          # transport failures + non-2xx/4xx envelopes
    solver_errors: int = 0   # well-formed responses with status != ok
    cache_hits: int = 0
    distinct_instances: int = 0
    latency_ms: Dict[str, float] = field(default_factory=dict)
    per_worker: Dict[str, WorkerSlice] = field(default_factory=dict)

    @property
    def error_rate(self) -> float:
        total = self.ok + self.failed + self.solver_errors
        return self.failed / total if total else 0.0

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.ok if self.ok else 0.0

    @property
    def throughput_rps(self) -> float:
        return self.n_requests / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def cache_hit_rps(self) -> float:
        return self.cache_hits / self.wall_s if self.wall_s > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "url": self.url,
            "mix": self.mix,
            "seed": self.seed,
            "n_requests": self.n_requests,
            "concurrency": self.concurrency,
            "wall_s": self.wall_s,
            "ok": self.ok,
            "failed": self.failed,
            "solver_errors": self.solver_errors,
            "cache_hits": self.cache_hits,
            "distinct_instances": self.distinct_instances,
            "error_rate": self.error_rate,
            "cache_hit_rate": self.cache_hit_rate,
            "throughput_rps": self.throughput_rps,
            "cache_hit_rps": self.cache_hit_rps,
            "latency_ms": dict(self.latency_ms),
            "per_worker": {
                node: s.to_dict() for node, s in sorted(self.per_worker.items())
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LoadTestReport":
        report = cls(
            url=str(data["url"]),
            mix=str(data["mix"]),
            seed=int(data["seed"]),
            n_requests=int(data["n_requests"]),
            concurrency=int(data["concurrency"]),
            wall_s=float(data.get("wall_s", 0.0)),
            ok=int(data.get("ok", 0)),
            failed=int(data.get("failed", 0)),
            solver_errors=int(data.get("solver_errors", 0)),
            cache_hits=int(data.get("cache_hits", 0)),
            distinct_instances=int(data.get("distinct_instances", 0)),
            latency_ms={
                k: float(v) for k, v in dict(data.get("latency_ms", {})).items()
            },
        )
        report.per_worker = {
            str(node): WorkerSlice.from_dict(s)
            for node, s in dict(data.get("per_worker", {})).items()
        }
        return report


def run_loadtest(
    url: str,
    *,
    n_requests: int = 200,
    concurrency: int = 8,
    seed: int = 0,
    mix: str = "default",
    timeout: float = 60.0,
) -> LoadTestReport:
    """Drive ``url`` with the deterministic mix; measure client-side.

    ``url`` may be a router or a plain ``repro serve`` daemon — both
    answer ``POST /v1/solve`` identically; per-worker attribution is
    simply empty against a single daemon (no ``X-Repro-Worker``
    header).  Thread-pool concurrency only affects *timing*: the
    request sequence itself is fixed by ``(seed, n_requests, mix)``.

    Each client thread sends over one persistent HTTP/1.1 connection,
    as real clients do, and opens a new one only after a transport
    error or a ``Connection: close`` answer.
    """
    requests = request_mix(seed, n_requests, mix)
    report = LoadTestReport(
        url=url,
        mix=mix,
        seed=seed,
        n_requests=n_requests,
        concurrency=concurrency,
        distinct_instances=len({r.instance_fp for r in requests}),
    )
    target = urllib.parse.urlsplit(url)
    solve_path = target.path.rstrip("/") + "/v1/solve"
    results: List[tuple] = [None] * len(requests)  # type: ignore[list-item]
    local = threading.local()
    opened: List[http.client.HTTPConnection] = []

    def _connection() -> http.client.HTTPConnection:
        conn = getattr(local, "conn", None)
        if conn is None:
            conn = local.conn = http.client.HTTPConnection(
                target.hostname, target.port, timeout=timeout
            )
            opened.append(conn)
        return conn

    def _drop() -> None:
        conn = getattr(local, "conn", None)
        if conn is not None:
            conn.close()
            local.conn = None

    def _one(load_req: LoadRequest) -> None:
        body = json.dumps(load_req.wire).encode("utf-8")
        t0 = time.perf_counter()
        worker = None
        try:
            conn = _connection()
            conn.request(
                "POST", solve_path, body=body,
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            payload = json.loads(resp.read())
            worker = resp.getheader(WORKER_HEADER)
            http_status = resp.status
            if resp.will_close:
                _drop()
        except Exception:  # noqa: BLE001 - transport failure = failed req
            _drop()
            results[load_req.index] = (
                (time.perf_counter() - t0) * 1e3, "transport", False, None
            )
            return
        latency_ms = (time.perf_counter() - t0) * 1e3
        status = payload.get("status") if isinstance(payload, dict) else None
        if http_status != 200 or status is None:
            results[load_req.index] = (latency_ms, "transport", False, worker)
            return
        diag = payload.get("diagnostics") or {}
        hit = bool(diag.get("cache_hit"))
        results[load_req.index] = (latency_ms, status, hit, worker)

    t_start = time.perf_counter()
    try:
        if concurrency <= 1:
            for r in requests:
                _one(r)
        else:
            with ThreadPoolExecutor(
                max_workers=concurrency, thread_name_prefix="loadtest"
            ) as pool:
                list(pool.map(_one, requests))
        report.wall_s = time.perf_counter() - t_start
    finally:
        for conn in opened:
            conn.close()

    latencies: List[float] = []
    for latency_ms, status, hit, worker in results:
        node = worker or "_single"
        worker_slice = report.per_worker.setdefault(node, WorkerSlice())
        worker_slice.requests += 1
        worker_slice.latency_ms_sum += latency_ms
        if status == "transport":
            report.failed += 1
            worker_slice.errors += 1
            continue
        latencies.append(latency_ms)
        if status == "ok":
            report.ok += 1
            if hit:
                report.cache_hits += 1
                worker_slice.cache_hits += 1
        else:
            report.solver_errors += 1
            worker_slice.errors += 1
    latencies.sort()
    report.latency_ms = {
        "mean": sum(latencies) / len(latencies) if latencies else 0.0,
        "p50": percentile(latencies, 0.50),
        "p90": percentile(latencies, 0.90),
        "p99": percentile(latencies, 0.99),
        "max": latencies[-1] if latencies else 0.0,
    }
    return report
