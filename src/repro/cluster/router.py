"""The cluster router: consistent-hash request sharding over N workers.

``repro cluster`` runs one :class:`RouterServer` in front of N ordinary
``repro serve`` worker daemons.  The router speaks the *same* wire
protocol as a single worker — clients cannot tell a cluster from one
daemon — and adds:

routing
    ``POST /v1/solve`` and ``POST /v1/dynamic/start`` are routed by the
    request's *instance fingerprint* (the workers' cache key, computed
    from the body's instance columns without building the instance,
    see :func:`repro.instances.io.instance_fingerprint_from_dict`)
    through a consistent-hash ring (:mod:`repro.cluster.ring`), so
    identical instances always land on the same worker and its result
    cache.  A body whose columns do not pack goes to one fixed worker,
    which validates it and answers the 400.  Every forward names its
    worker in the ``X-Repro-Worker`` header, and a worker mints the
    session ids it opens as ``dyn-<hex>@<its node id>``, so
    ``/v1/dynamic/apply`` and ``/v1/dynamic/close`` go to the worker
    the id names.  The router keeps no per-session state: a restarted
    router routes every session the workers still hold.

failover
    A worker that refuses connections, times out or answers 5xx is
    retried against the next ring successor with bounded exponential
    backoff (:data:`BACKOFF_BASE_S` ``* 2^attempt``, capped at
    :data:`BACKOFF_CAP_S`), for :data:`RETRY_ROUNDS` passes.  Safe for
    ``/v1/solve`` because solving is deterministic and idempotent;
    session traffic runs the same loop over its one owner, so it never
    moves to another worker.  4xx responses are the *caller's* fault
    and are relayed verbatim, never retried.

health
    A background prober hits every worker's ``/v1/healthz`` each
    ``probe_interval`` seconds.  ``down_after`` consecutive failures
    (probe or forward) eject the worker from the ring — its keys remap
    minimally to the ring successors — and a succeeding probe re-adds
    it.  A restarted worker recovers its own result cache and sessions
    from its write-ahead log and gets its ring arcs back, so the keys
    it served before a crash are warm again on rejoin.

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
from typing import Callable, Dict, List, Optional, Tuple

from ..instances.io import instance_fingerprint_from_dict
from ..service.httpjson import (
    NODE_ID,
    WORKER_HEADER,
    JSONHandler,
    JSONServer,
    error_body,
)
from ..service.schema import WIRE_SCHEMA_VERSION, ErrorCode
from .ring import HashRing

__all__ = ["ClusterState", "RouterServer", "make_router", "WorkerView"]

#: Seconds one forward may take before it counts as a transport failure.
FORWARD_TIMEOUT_S = 60.0

#: Seconds one health probe may take before it counts as a failure.
PROBE_TIMEOUT_S = 5.0

#: Passes the failover loop makes over a request's workers.
RETRY_ROUNDS = 2

#: Seconds slept after the first failed attempt; doubles per attempt.
BACKOFF_BASE_S = 0.05

#: Longest sleep between two attempts, in seconds.
BACKOFF_CAP_S = 0.5


def _route_key(payload: object) -> str:
    """Ring key of a solve or dynamic/start body: its instance
    fingerprint, or one fixed key when the columns do not pack.  Only
    cache affinity depends on it — the worker validates every body."""
    try:
        return instance_fingerprint_from_dict(payload["instance"])
    except (KeyError, TypeError, ValueError, OverflowError):
        return "unkeyed"


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
        }


class ClusterState:
    """Shared, locked cluster membership + routing state.

    Parameters
    ----------
    workers:
        ``node_id -> base_url`` of the worker fleet, each owning
        :data:`~repro.cluster.ring.DEFAULT_VNODES` points on the ring.
    down_after:
        Consecutive failures (probe or forward) before a worker is
        ejected from the ring.
    """

    def __init__(
        self,
        workers: Dict[str, str],
        *,
        down_after: int = 2,
    ) -> None:
        if not workers:
            raise ValueError("a cluster needs at least one worker")
        for node_id in workers:
            if not NODE_ID.fullmatch(node_id):
                raise ValueError(
                    f"worker name {node_id!r} does not match {NODE_ID.pattern}"
                )
        self._lock = threading.Lock()
        self.workers: Dict[str, WorkerView] = {
            node_id: WorkerView(node_id, url)
            for node_id, url in sorted(workers.items())
        }
        self.ring = HashRing(self.workers)
        self.down_after = max(1, down_after)
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

    def owner(self, session_id: str) -> Optional[WorkerView]:
        """The worker a session id names after its ``@``, if any."""
        _, at, node_id = session_id.rpartition("@")
        return self.workers.get(node_id) if at else None

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

    def note_success(self, worker: WorkerView, attempt: int = 0) -> bool:
        """Record one success; True if this re-admitted the worker.

        ``attempt`` numbers the forward that succeeded (1 for a first
        try) and counts it as a request, and as a retry after the
        first; a probe passes 0.
        """
        with self._lock:
            worker.consecutive_failures = 0
            if attempt:
                worker.requests += 1
                worker.retries += attempt > 1
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
            "uptime_s": uptime,
            "workers": views,
        }


class _Prober(threading.Thread):
    """Background health prober; drives eject/rejoin."""

    def __init__(self, state: ClusterState, interval: float) -> None:
        super().__init__(name="cluster-prober", daemon=True)
        self.state = state
        self.interval = interval
        self.stop_event = threading.Event()

    def run(self) -> None:
        while not self.stop_event.wait(self.interval):
            for worker in self.state.all_workers():
                self.probe(worker)

    def probe(self, worker: WorkerView) -> None:
        t0 = time.perf_counter()
        try:
            with urllib.request.urlopen(
                worker.base_url + "/v1/healthz", timeout=PROBE_TIMEOUT_S
            ) as resp:
                ok = resp.status == 200
                resp.read()
        except Exception:  # noqa: BLE001 - any transport failure counts
            ok = False
        latency_ms = (time.perf_counter() - t0) * 1e3
        worker.last_probe_ms = latency_ms
        worker.last_probe_ok = ok
        if ok:
            self.state.note_success(worker)
        else:
            self.state.note_failure(worker)


class RouterServer(JSONServer):
    """Threaded HTTP server carrying the shared cluster state."""

    def __init__(
        self,
        address: Tuple[str, int],
        state: ClusterState,
        *,
        probe_interval: float = 1.0,
        verbose: bool = False,
    ) -> None:
        super().__init__(address, _RouterHandler)
        self.state = state
        self.verbose = verbose
        self.prober = _Prober(state, probe_interval)

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
            headers={
                "Content-Type": "application/json",
                WORKER_HEADER: worker.node_id,
            },
            method="POST" if body is not None else "GET",
        )
        try:
            with urllib.request.urlopen(req, timeout=FORWARD_TIMEOUT_S) as resp:
                return resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            # Worker answered: an HTTP status, not a transport failure.
            return exc.code, exc.read()

    def _forward(
        self,
        workers: Callable[[], List[WorkerView]],
        path: str,
        body: Optional[bytes],
    ) -> Tuple[int, bytes, Optional[str]]:
        """Forward with failover + bounded exponential backoff.

        Walks ``workers()`` — a key's ring successors, or a session's
        owner alone — for :data:`RETRY_ROUNDS` rounds, sleeping
        ``BACKOFF_BASE_S * 2^attempt`` (capped at :data:`BACKOFF_CAP_S`)
        between consecutive failures.  A worker that answers — any
        status — ends the walk: HTTP-level errors from a healthy worker
        are the upstream's verdict, 5xx excepted, which triggers
        failover like a transport failure.
        """
        state = self.server.state
        attempt = 0
        last_error = "no workers configured"
        for _round in range(RETRY_ROUNDS):
            for worker in workers():
                if attempt:
                    time.sleep(
                        min(BACKOFF_CAP_S, BACKOFF_BASE_S * 2 ** (attempt - 1))
                    )
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
                state.note_success(worker, attempt)
                return status, payload, worker.node_id
        return (
            503,
            error_body(
                ErrorCode.SOLVER_ERROR,
                f"no worker answered {path} — last error: {last_error}",
            ),
            None,
        )

    # -- GET routes ----------------------------------------------------
    def _get_healthz(self) -> None:
        from .. import __version__

        self._send_json(200, self.server.state.healthz(__version__))

    def _get_solvers(self) -> None:
        # Registry introspection is identical on every worker.
        self._relay(*self._forward(
            lambda: self.server.state.successors("solvers"), "/v1/solvers", None
        ))

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
    def _post_keyed(self, payload: object, body: bytes) -> None:
        """``/v1/solve`` and ``/v1/dynamic/start``: by instance key."""
        key = _route_key(payload)
        self._relay(*self._forward(
            lambda: self.server.state.successors(key), self.path, body
        ))

    def _post_session(self, payload: object, body: bytes) -> None:
        """``/v1/dynamic/apply`` and ``/close``: to the id's owner."""
        session_id = (
            payload.get("session_id") if isinstance(payload, dict) else None
        )
        if not isinstance(session_id, str):
            self._send_error_json(
                400, ErrorCode.BAD_REQUEST, "'session_id' must be a string"
            )
            return
        owner = self.server.state.owner(session_id)
        if owner is None:
            self._send_error_json(
                404, ErrorCode.BAD_REQUEST, f"no such session: {session_id}"
            )
            return
        self._relay(*self._forward(lambda: [owner], self.path, body))

    GET_ROUTES = {
        "/v1/healthz": _get_healthz,
        "/v1/solvers": _get_solvers,
        "/v1/dynamic": _get_dynamic,
    }
    POST_ROUTES = {
        "/v1/solve": _post_keyed,
        "/v1/dynamic/start": _post_keyed,
        "/v1/dynamic/apply": _post_session,
        "/v1/dynamic/close": _post_session,
    }


def make_router(
    host: str = "127.0.0.1",
    port: int = 8360,
    *,
    workers: Dict[str, str],
    down_after: int = 2,
    probe_interval: float = 1.0,
    verbose: bool = False,
) -> RouterServer:
    """Build (but do not start) a router bound to ``host:port``.

    ``port=0`` binds an ephemeral port, same contract as
    :func:`repro.service.daemon.make_server`.  Call
    :meth:`RouterServer.start_prober` before ``serve_forever`` to begin
    health probing (tests may drive :meth:`_Prober.probe` manually for
    determinism instead).
    """
    state = ClusterState(workers, down_after=down_after)
    return RouterServer(
        (host, port),
        state,
        probe_interval=probe_interval,
        verbose=verbose,
    )
