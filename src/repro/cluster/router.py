"""The cluster router: consistent-hash request sharding over N workers.

``repro cluster`` runs one :class:`RouterServer` in front of N ordinary
``repro serve`` worker daemons.  The router speaks the *same* wire
protocol as a single worker — clients cannot tell a cluster from one
daemon — and adds:

routing
    ``POST /v1/solve`` and ``POST /v1/dynamic/start`` are routed by the
    request's *instance fingerprint* (content-addressed SHA-256, see
    :mod:`repro.service.fingerprint`) through a consistent-hash ring
    (:mod:`repro.cluster.ring`), so identical instances always land on
    the same worker and its result cache.  ``/v1/dynamic/apply`` and
    ``/v1/dynamic/close`` follow the *session*: the router remembers
    which worker opened each session id and pins the session's traffic
    there (sessions are stateful; they must not wander).

failover
    A worker that refuses connections, times out or answers 5xx is
    retried against the next ring successor with bounded exponential
    backoff (``backoff_base * 2^attempt``, capped).  Safe for
    ``/v1/solve`` because solving is deterministic and idempotent;
    session traffic is only ever retried against its own worker.
    4xx responses are the *caller's* fault and are relayed verbatim,
    never retried.

health
    A background prober hits every worker's ``/v1/healthz`` each
    ``probe_interval`` seconds.  ``down_after`` consecutive failures
    (probe or forward) eject the worker from the ring — its keys remap
    minimally to the ring successors — and a succeeding probe re-adds
    it.  On rejoin, the router warms the worker's result cache from the
    *other* workers' durable WAL/snapshot state
    (:mod:`repro.cluster.warmup`), so recovered workers return warm.

observability
    The router's ``GET /v1/healthz`` reports per-worker ring ownership
    share, aliveness, last-probe latency and forward/retry counters —
    ``status`` is ``"ok"`` with every worker up, ``"degraded"`` while
    serving without some, ``"down"`` with none.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional, Tuple

from ..service.fingerprint import instance_fingerprint
from ..service.httpjson import JSONHandler, JSONServer, error_body
from ..service.schema import (
    WIRE_SCHEMA_VERSION,
    ErrorCode,
    SolveRequest,
    WireFormatError,
)
from .ring import DEFAULT_VNODES, HashRing

__all__ = ["ClusterState", "RouterServer", "make_router", "WorkerView"]

#: Response header naming the worker that served a routed request —
#: the load generator uses it for per-worker attribution.
WORKER_HEADER = "X-Repro-Worker"


class WorkerView:
    """Mutable per-worker bookkeeping (guarded by the cluster lock)."""

    def __init__(self, node_id: str, base_url: str) -> None:
        self.node_id = node_id
        self.base_url = base_url.rstrip("/")
        self.alive = True
        self.consecutive_failures = 0
        self.last_probe_ms: Optional[float] = None
        self.last_probe_ok: Optional[bool] = None
        self.requests = 0
        self.retries = 0
        self.warmed_entries = 0

    def to_wire(self, share: float) -> dict:
        return {
            "node_id": self.node_id,
            "url": self.base_url,
            "alive": self.alive,
            "ring_share": share,
            "last_probe_ms": self.last_probe_ms,
            "last_probe_ok": self.last_probe_ok,
            "consecutive_failures": self.consecutive_failures,
            "requests": self.requests,
            "retries": self.retries,
            "warmed_entries": self.warmed_entries,
        }


class ClusterState:
    """Shared, locked cluster membership + routing state.

    Parameters
    ----------
    workers:
        ``node_id -> base_url`` of the worker fleet.
    vnodes:
        Virtual nodes per worker on the hash ring.
    down_after:
        Consecutive failures (probe or forward) before a worker is
        ejected from the ring.
    data_dirs:
        Optional ``node_id -> data_dir`` map for locally managed
        workers; enables cache warm-up on rejoin.  Attached remote
        workers (URLs only) skip warm-up.
    """

    def __init__(
        self,
        workers: Dict[str, str],
        *,
        vnodes: int = DEFAULT_VNODES,
        down_after: int = 2,
        data_dirs: Optional[Dict[str, str]] = None,
    ) -> None:
        if not workers:
            raise ValueError("a cluster needs at least one worker")
        self._lock = threading.Lock()
        self.workers: Dict[str, WorkerView] = {
            node_id: WorkerView(node_id, url)
            for node_id, url in sorted(workers.items())
        }
        self.ring = HashRing(self.workers, vnodes=vnodes)
        self.down_after = max(1, down_after)
        self.data_dirs = dict(data_dirs or {})
        self.sessions: Dict[str, str] = {}  # session_id -> node_id
        self.started = time.monotonic()

    # -- routing -------------------------------------------------------
    def successors(self, key: str) -> List[WorkerView]:
        """Failover order for ``key``: live ring members, then the rest.

        Ejected workers are appended last so that a request arriving
        while *every* worker is marked down still probes the full
        fleet before giving up.
        """
        with self._lock:
            order = self.ring.successors(key)
            out = [self.workers[n] for n in order]
            dead = [w for n, w in sorted(self.workers.items()) if n not in order]
        return out + dead

    def worker_for_session(self, session_id: str) -> Optional[WorkerView]:
        with self._lock:
            node_id = self.sessions.get(session_id)
            return self.workers.get(node_id) if node_id is not None else None

    def bind_session(self, session_id: str, node_id: str) -> None:
        with self._lock:
            self.sessions[session_id] = node_id

    def release_session(self, session_id: str) -> None:
        with self._lock:
            self.sessions.pop(session_id, None)

    def live_workers(self) -> List[WorkerView]:
        with self._lock:
            return [w for w in self.workers.values() if w.alive]

    def all_workers(self) -> List[WorkerView]:
        with self._lock:
            return list(self.workers.values())

    # -- failure accounting --------------------------------------------
    def note_failure(self, worker: WorkerView) -> bool:
        """Record one failed probe/forward; True if this ejected it."""
        with self._lock:
            worker.consecutive_failures += 1
            if worker.alive and worker.consecutive_failures >= self.down_after:
                worker.alive = False
                self.ring.remove(worker.node_id)
                return True
        return False

    def note_success(self, worker: WorkerView) -> bool:
        """Record one success; True if this re-admitted the worker."""
        with self._lock:
            worker.consecutive_failures = 0
            if not worker.alive:
                worker.alive = True
                self.ring.add(worker.node_id)
                return True
        return False

    def healthz(self, version: str) -> dict:
        with self._lock:
            shares = self.ring.ownership()
            views = [
                w.to_wire(shares.get(w.node_id, 0.0))
                for w in sorted(self.workers.values(), key=lambda w: w.node_id)
            ]
            n_alive = sum(1 for w in self.workers.values() if w.alive)
            n_total = len(self.workers)
            sessions = len(self.sessions)
            uptime = time.monotonic() - self.started
        status = (
            "ok" if n_alive == n_total else "degraded" if n_alive else "down"
        )
        return {
            "schema": WIRE_SCHEMA_VERSION,
            "status": status,
            "role": "router",
            "version": version,
            "ring": {
                "vnodes": self.ring.vnodes,
                "workers_alive": n_alive,
                "workers_total": n_total,
            },
            "sessions": sessions,
            "uptime_s": uptime,
            "workers": views,
        }


class _Prober(threading.Thread):
    """Background health prober; drives eject/rejoin + rejoin warm-up."""

    def __init__(
        self, state: ClusterState, interval: float, timeout: float
    ) -> None:
        super().__init__(name="cluster-prober", daemon=True)
        self.state = state
        self.interval = interval
        self.timeout = timeout
        self.stop_event = threading.Event()

    def run(self) -> None:
        while not self.stop_event.wait(self.interval):
            for worker in self.state.all_workers():
                self.probe(worker)

    def probe(self, worker: WorkerView) -> None:
        t0 = time.perf_counter()
        try:
            with urllib.request.urlopen(
                worker.base_url + "/v1/healthz", timeout=self.timeout
            ) as resp:
                ok = resp.status == 200
                resp.read()
        except Exception:  # noqa: BLE001 - any transport failure counts
            ok = False
        latency_ms = (time.perf_counter() - t0) * 1e3
        worker.last_probe_ms = latency_ms
        worker.last_probe_ok = ok
        if ok:
            rejoined = self.state.note_success(worker)
            if rejoined:
                self._warm(worker)
        else:
            self.state.note_failure(worker)

    def _warm(self, worker: WorkerView) -> None:
        """Best-effort cache warm-up for a worker that just rejoined."""
        if not self.state.data_dirs:
            return
        from .warmup import plan_warmup, warm_worker

        with self.state._lock:
            ring = HashRing(self.state.ring.nodes, vnodes=self.state.ring.vnodes)
        entries = plan_warmup(worker.node_id, ring, self.state.data_dirs)
        if entries:
            worker.warmed_entries += warm_worker(worker.base_url, entries)


class RouterServer(JSONServer):
    """Threaded HTTP server carrying the shared cluster state."""

    def __init__(
        self,
        address: Tuple[str, int],
        state: ClusterState,
        *,
        probe_interval: float = 1.0,
        probe_timeout: float = 5.0,
        forward_timeout: float = 60.0,
        backoff_base: float = 0.05,
        backoff_cap: float = 0.5,
        retry_rounds: int = 2,
        verbose: bool = False,
    ) -> None:
        super().__init__(address, _RouterHandler)
        self.state = state
        self.forward_timeout = forward_timeout
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.retry_rounds = max(1, retry_rounds)
        self.verbose = verbose
        self.prober = _Prober(state, probe_interval, probe_timeout)

    def start_prober(self) -> None:
        if not self.prober.is_alive():
            self.prober.start()

    def server_close(self) -> None:  # noqa: D102 - stdlib override
        self.prober.stop_event.set()
        super().server_close()


class _RouterHandler(JSONHandler):
    server: RouterServer  # narrowed for type checkers

    def _relay(self, status: int, body: bytes, node: Optional[str]) -> None:
        """Send a worker's answer on, naming the worker that gave it."""
        self._send_bytes(
            status, body, {WORKER_HEADER: node} if node is not None else None
        )

    # -- forwarding core -----------------------------------------------
    def _forward_once(
        self, worker: WorkerView, path: str, body: Optional[bytes]
    ) -> Tuple[int, bytes]:
        """One upstream attempt; raises on transport failure."""
        req = urllib.request.Request(
            worker.base_url + path,
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST" if body is not None else "GET",
        )
        try:
            with urllib.request.urlopen(
                req, timeout=self.server.forward_timeout
            ) as resp:
                return resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            # Worker answered: an HTTP status, not a transport failure.
            return exc.code, exc.read()

    def _forward_failover(
        self, key: str, path: str, body: Optional[bytes]
    ) -> Tuple[int, bytes, Optional[str]]:
        """Forward with ring failover + bounded exponential backoff.

        Walks the key's successor list (live members first) for up to
        ``retry_rounds`` rounds, sleeping ``backoff_base * 2^attempt``
        (capped at ``backoff_cap``) between consecutive failures.  A
        worker that answers — any status — ends the walk: HTTP-level
        errors from a healthy worker are the upstream's verdict, 5xx
        excepted, which triggers failover like a transport failure.
        """
        server = self.server
        state = server.state
        attempt = 0
        last_error = "no workers configured"
        for _round in range(server.retry_rounds):
            for worker in state.successors(key):
                if attempt:
                    delay = min(
                        server.backoff_cap,
                        server.backoff_base * (2 ** (attempt - 1)),
                    )
                    time.sleep(delay)
                attempt += 1
                try:
                    status, payload = self._forward_once(worker, path, body)
                except Exception as exc:  # noqa: BLE001 - transport failure
                    last_error = f"{worker.node_id}: {type(exc).__name__}: {exc}"
                    state.note_failure(worker)
                    continue
                if status >= 500:
                    last_error = f"{worker.node_id}: upstream HTTP {status}"
                    state.note_failure(worker)
                    continue
                state.note_success(worker)
                worker.requests += 1
                if attempt > 1:
                    worker.retries += 1
                return status, payload, worker.node_id
        return (
            503,
            error_body(
                ErrorCode.SOLVER_ERROR,
                f"no worker available for key {key[:16]}… — "
                f"last error: {last_error}",
            ),
            None,
        )

    def _forward_pinned(
        self, worker: WorkerView, path: str, body: Optional[bytes]
    ) -> Tuple[int, bytes, Optional[str]]:
        """Forward to one specific worker (session traffic), with
        bounded backoff retries against the *same* worker only."""
        server = self.server
        last_error = "unreachable"
        for attempt in range(server.retry_rounds + 1):
            if attempt:
                time.sleep(min(
                    server.backoff_cap, server.backoff_base * (2 ** (attempt - 1))
                ))
            try:
                status, payload = self._forward_once(worker, path, body)
            except Exception as exc:  # noqa: BLE001 - transport failure
                last_error = f"{type(exc).__name__}: {exc}"
                server.state.note_failure(worker)
                continue
            server.state.note_success(worker)
            worker.requests += 1
            if attempt:
                worker.retries += 1
            return status, payload, worker.node_id
        return (
            503,
            error_body(
                ErrorCode.SOLVER_ERROR,
                f"session worker {worker.node_id} is unavailable — {last_error}",
            ),
            None,
        )

    # -- GET routes ----------------------------------------------------
    def _get_healthz(self) -> None:
        from .. import __version__

        self._send_json(200, self.server.state.healthz(__version__))

    def _get_solvers(self) -> None:
        # Registry introspection is identical on every worker.
        self._relay(*self._forward_failover("solvers", "/v1/solvers", None))

    def _get_dynamic(self) -> None:
        """Fan out to every live worker and merge the session lists."""
        sessions: List[dict] = []
        for worker in self.server.state.live_workers():
            try:
                status, payload = self._forward_once(worker, "/v1/dynamic", None)
            except Exception:  # noqa: BLE001 - skip unreachable workers
                continue
            if status != 200:
                continue
            for item in json.loads(payload).get("sessions", []):
                item["worker"] = worker.node_id
                sessions.append(item)
        sessions.sort(key=lambda s: s.get("session_id", ""))
        self._send_json(
            200, {"schema": WIRE_SCHEMA_VERSION, "sessions": sessions}
        )

    # -- POST routes ---------------------------------------------------
    def _post_solve(self, payload: object, body: bytes) -> None:
        try:
            request = SolveRequest.from_wire(payload)
        except WireFormatError as exc:
            self._send_error_json(400, ErrorCode.BAD_REQUEST, str(exc))
            return
        key = instance_fingerprint(request.instance)
        self._relay(*self._forward_failover(key, "/v1/solve", body))

    def _post_dynamic_start(self, payload: object, body: bytes) -> None:
        from ..instances.io import instance_from_dict

        try:
            instance = instance_from_dict(payload["instance"])
        except Exception as exc:  # noqa: BLE001 - normalise codec failures
            self._send_error_json(
                400,
                ErrorCode.BAD_REQUEST,
                f"bad dynamic/start payload — {type(exc).__name__}: {exc}",
            )
            return
        key = instance_fingerprint(instance)
        status, answer, node = self._forward_failover(
            key, "/v1/dynamic/start", body
        )
        if status == 200 and node is not None:
            try:
                session_id = json.loads(answer).get("session_id")
            except json.JSONDecodeError:  # pragma: no cover - worker bug
                session_id = None
            if isinstance(session_id, str):
                self.server.state.bind_session(session_id, node)
        self._relay(status, answer, node)

    def _post_dynamic_pinned(self, payload: object, body: bytes) -> None:
        session_id = (
            payload.get("session_id") if isinstance(payload, dict) else None
        )
        if not isinstance(session_id, str):
            self._send_error_json(
                400, ErrorCode.BAD_REQUEST, "'session_id' must be a string"
            )
            return
        worker = self.server.state.worker_for_session(session_id)
        if worker is None:
            self._send_error_json(
                404, ErrorCode.BAD_REQUEST, f"no such session: {session_id}"
            )
            return
        status, answer, node = self._forward_pinned(worker, self.path, body)
        if self.path == "/v1/dynamic/close" and status == 200:
            self.server.state.release_session(session_id)
        self._relay(status, answer, node)

    GET_ROUTES = {
        "/v1/healthz": _get_healthz,
        "/v1/solvers": _get_solvers,
        "/v1/dynamic": _get_dynamic,
    }
    POST_ROUTES = {
        "/v1/solve": _post_solve,
        "/v1/dynamic/start": _post_dynamic_start,
        "/v1/dynamic/apply": _post_dynamic_pinned,
        "/v1/dynamic/close": _post_dynamic_pinned,
    }


def make_router(
    host: str = "127.0.0.1",
    port: int = 8360,
    *,
    workers: Dict[str, str],
    vnodes: int = DEFAULT_VNODES,
    down_after: int = 2,
    data_dirs: Optional[Dict[str, str]] = None,
    probe_interval: float = 1.0,
    probe_timeout: float = 5.0,
    forward_timeout: float = 60.0,
    backoff_base: float = 0.05,
    backoff_cap: float = 0.5,
    retry_rounds: int = 2,
    verbose: bool = False,
) -> RouterServer:
    """Build (but do not start) a router bound to ``host:port``.

    ``port=0`` binds an ephemeral port, same contract as
    :func:`repro.service.daemon.make_server`.  Call
    :meth:`RouterServer.start_prober` before ``serve_forever`` to begin
    health probing (tests may drive :meth:`_Prober.probe` manually for
    determinism instead).
    """
    state = ClusterState(
        workers, vnodes=vnodes, down_after=down_after, data_dirs=data_dirs
    )
    return RouterServer(
        (host, port),
        state,
        probe_interval=probe_interval,
        probe_timeout=probe_timeout,
        forward_timeout=forward_timeout,
        backoff_base=backoff_base,
        backoff_cap=backoff_cap,
        retry_rounds=retry_rounds,
        verbose=verbose,
    )
