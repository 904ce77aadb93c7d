"""``repro serve`` — the placement service over HTTP.

A dependency-free daemon on stdlib ``http.server``: a
:class:`~http.server.ThreadingHTTPServer` whose handler delegates every
request to one shared, thread-safe
:class:`~repro.service.facade.PlacementService`.  JSON in, JSON out,
same wire schema as the library codecs — a solve body sent through the
daemon decodes to the ``SolveResponse.to_wire()`` an in-process
``PlacementService.solve`` returns (timings aside).  Solve bodies are
canonical JSON (sorted keys, no whitespace); a cache hit is answered
from the wire columns' key without building the instance, writing the
cached placement's stored bytes (see
:meth:`~repro.service.facade.PlacementService.solve_wire`).

Endpoints
---------
``POST /v1/solve``
    Body: a ``SolveRequest`` wire object.  Returns a ``SolveResponse``
    wire object: HTTP 200 for every solver-level outcome (including
    ``infeasible`` etc. — inspect ``status``/``error``), HTTP 400 for
    malformed envelopes, unknown solvers and empty registries.
``GET /v1/solvers``
    Registry introspection: ``{"schema": 1, "solvers": [...]}`` with
    applicability metadata and auto-chain membership per solver.
``GET /v1/healthz``
    Liveness plus service stats (requests, cache hit rate, latency
    percentiles, uptime; when running with ``--data-dir``, a
    ``durability`` section: data dir, last/snapshot sequence numbers,
    WAL size, replay counters).
``POST /v1/dynamic/start``
    Body: a ``SolveRequest`` wire object, checked as ``/v1/solve``
    checks it; its ``instance`` and ``solver`` are used.  Opens an
    online re-placement session; returns ``{"session_id", "solver",
    "n_replicas", "fingerprint"}``.  A malformed body, an unknown
    solver or an infeasible instance is a 400 that logs nothing.  A
    cluster router names the worker in an ``X-Repro-Worker`` header,
    and the session id ends ``@<that name>``; a name outside
    ``[A-Za-z0-9_-]{1,64}`` is a 400.
``POST /v1/dynamic/apply``
    Body: ``{"schema": 1, "session_id": str, "events": [...]}`` with
    events in the :func:`~repro.dynamic.event_to_wire` shape.  Folds
    the batch into the session and returns the repair outcome.
``POST /v1/dynamic/close``
    Body: ``{"schema": 1, "session_id": str}``.  Drops the session.
``GET /v1/dynamic``
    Lists open sessions with solver, cost and failed hosts.

Anything else is a JSON 404.  Result-cache entries come only from the
service's own solves and session repairs (and their replay from its own
write-ahead log); no endpoint accepts a cache entry from a client.  Errors outside solver code, the stdlib's
own (malformed request line, unsupported method) included, map to the
``{"error": {"code", "message"}}`` shape clients already parse.  The
HTTP plumbing is shared with the cluster router
(:mod:`repro.service.httpjson`).

Durability: ``serve(..., data_dir=...)`` backs the service with a
:class:`~repro.storage.StateStore` — sessions and cache entries are
write-ahead logged and recovered on restart — and installs
``SIGTERM``/``SIGINT`` handlers that snapshot + compact before exiting,
so a polite shutdown restarts from a snapshot instead of a log replay
(``kill -9`` still recovers, from WAL replay; see
``docs/durability.md``).
"""

from __future__ import annotations

import sys
import threading
from typing import List, Optional, Tuple

from ..core.errors import ReproError
from ..runner.registry import UnknownSolverError
from ..storage import StateStore
from .facade import PlacementService, UnknownSessionError
from .httpjson import (
    NODE_ID,
    WORKER_HEADER,
    JSONHandler,
    JSONServer,
    graceful_shutdown,
)
from .schema import WIRE_SCHEMA_VERSION, ErrorCode, SolveRequest, WireFormatError

__all__ = ["PlacementServer", "make_server", "serve"]


def _version() -> str:
    # Imported lazily: repro/__init__ re-exports this module, so a
    # top-level `from .. import __version__` would run during the
    # package's own initialisation.
    from .. import __version__

    return __version__


class PlacementServer(JSONServer):
    """Threaded HTTP server carrying the shared service instance."""

    def __init__(
        self, address: Tuple[str, int], service: PlacementService
    ) -> None:
        super().__init__(address, _Handler)
        self.service = service


class _Handler(JSONHandler):
    server: PlacementServer  # narrowed for type checkers

    # -- GET routes ----------------------------------------------------
    def _get_healthz(self) -> None:
        stats = self.server.service.stats()
        self._send_json(
            200,
            {
                "schema": WIRE_SCHEMA_VERSION,
                "status": "ok",
                "version": _version(),
                "stats": stats.to_wire(),
            },
        )

    def _get_solvers(self) -> None:
        self._send_json(
            200,
            {
                "schema": WIRE_SCHEMA_VERSION,
                "solvers": self.server.service.solver_info(),
            },
        )

    def _get_dynamic(self) -> None:
        self._send_json(
            200,
            {
                "schema": WIRE_SCHEMA_VERSION,
                "sessions": self.server.service.dynamic_sessions(),
            },
        )

    # -- POST routes ---------------------------------------------------
    def _post_solve(self, payload: object, _body: bytes) -> None:
        self._send_bytes(*self.server.service.solve_wire(payload))

    # -- dynamic sessions ----------------------------------------------
    def _check_envelope(self, payload: object) -> Optional[dict]:
        """Common schema/shape validation for the dynamic endpoints."""
        if not isinstance(payload, dict):
            self._send_error_json(
                400,
                ErrorCode.BAD_REQUEST,
                f"body must be a JSON object, got {type(payload).__name__}",
            )
            return None
        if payload.get("schema") != WIRE_SCHEMA_VERSION:
            self._send_error_json(
                400,
                ErrorCode.BAD_REQUEST,
                f"unsupported wire schema {payload.get('schema')!r} "
                f"(this service speaks version {WIRE_SCHEMA_VERSION})",
            )
            return None
        return payload

    def _post_dynamic_start(self, payload: object, _body: bytes) -> None:
        owner = self.headers.get(WORKER_HEADER)
        if owner is not None and not NODE_ID.fullmatch(owner):
            self._send_error_json(
                400,
                ErrorCode.BAD_REQUEST,
                f"{WORKER_HEADER} must match {NODE_ID.pattern}, got {owner!r}",
            )
            return
        try:
            request = SolveRequest.from_wire(payload)
        except WireFormatError as exc:
            self._send_error_json(400, ErrorCode.BAD_REQUEST, str(exc))
            return
        service = self.server.service
        try:
            session_id = service.start_dynamic(
                request.instance, solver=request.solver, owner=owner
            )
        except UnknownSolverError as exc:
            self._send_error_json(400, ErrorCode.UNKNOWN_SOLVER, str(exc))
            return
        except ReproError as exc:
            # An unsolvable initial snapshot is the caller's problem,
            # reported structurally, not a 500.
            self._send_error_json(400, ErrorCode.INFEASIBLE, str(exc))
            return
        engine = service.dynamic_session(session_id)
        placement = engine.placement
        self._send_json(
            200,
            {
                "schema": WIRE_SCHEMA_VERSION,
                "session_id": session_id,
                "solver": engine.solver_name,
                "n_replicas": (
                    placement.n_replicas if placement is not None else None
                ),
                "fingerprint": engine.fingerprint(),
            },
        )

    def _post_dynamic_apply(self, payload: object, _body: bytes) -> None:
        from ..dynamic import event_from_wire

        payload = self._check_envelope(payload)
        if payload is None:
            return
        session_id = payload.get("session_id")
        if not isinstance(session_id, str):
            self._send_error_json(
                400, ErrorCode.BAD_REQUEST, "'session_id' must be a string"
            )
            return
        raw_events = payload.get("events")
        if not isinstance(raw_events, list):
            self._send_error_json(
                400, ErrorCode.BAD_REQUEST, "'events' must be a list"
            )
            return
        try:
            events: List[object] = [event_from_wire(e) for e in raw_events]
        except ReproError as exc:
            self._send_error_json(400, ErrorCode.BAD_REQUEST, str(exc))
            return
        try:
            outcome = self.server.service.apply_events(session_id, events)
        except UnknownSessionError:
            self._send_error_json(
                404, ErrorCode.BAD_REQUEST, f"no such session: {session_id}"
            )
            return
        self._send_json(
            200,
            {
                "schema": WIRE_SCHEMA_VERSION,
                "session_id": session_id,
                "ok": outcome.ok,
                "mode": outcome.mode,
                "cost": outcome.cost,
                "repair_s": outcome.repair_s,
                "fallback_reason": outcome.fallback_reason,
                "error": outcome.error,
                "fingerprint": outcome.fingerprint,
            },
        )

    def _post_dynamic_close(self, payload: object, _body: bytes) -> None:
        payload = self._check_envelope(payload)
        if payload is None:
            return
        session_id = payload.get("session_id")
        if not isinstance(session_id, str):
            self._send_error_json(
                400, ErrorCode.BAD_REQUEST, "'session_id' must be a string"
            )
            return
        self.server.service.close_dynamic(session_id)
        self._send_json(
            200,
            {"schema": WIRE_SCHEMA_VERSION, "session_id": session_id, "closed": True},
        )

    GET_ROUTES = {
        "/v1/healthz": _get_healthz,
        "/v1/solvers": _get_solvers,
        "/v1/dynamic": _get_dynamic,
    }
    POST_ROUTES = {
        "/v1/solve": _post_solve,
        "/v1/dynamic/start": _post_dynamic_start,
        "/v1/dynamic/apply": _post_dynamic_apply,
        "/v1/dynamic/close": _post_dynamic_close,
    }


def make_server(
    host: str = "127.0.0.1",
    port: int = 8350,
    *,
    service: Optional[PlacementService] = None,
    cache_size: int = 256,
    default_budget: Optional[int] = None,
    verbose: bool = False,
    data_dir: Optional[str] = None,
    snapshot_interval: int = 256,
) -> PlacementServer:
    """Build (but do not start) a daemon bound to ``host:port``.

    ``port=0`` binds an ephemeral port — read it back from
    ``server.server_address`` — which is what the tests and the CI smoke
    job use to avoid collisions.  ``data_dir`` backs the service with a
    :class:`~repro.storage.StateStore`: state recovered before the
    socket binds, every mutation WAL-logged after (ignored when an
    explicit ``service`` is passed — wire its store yourself).
    """
    if service is None:
        store = (
            StateStore(data_dir, snapshot_interval=snapshot_interval)
            if data_dir is not None
            else None
        )
        service = PlacementService(
            cache_size=cache_size, default_budget=default_budget, store=store
        )
    server = PlacementServer((host, port), service)
    server.verbose = verbose
    return server


def serve(
    host: str = "127.0.0.1",
    port: int = 8350,
    *,
    cache_size: int = 256,
    default_budget: Optional[int] = None,
    verbose: bool = False,
    ready: Optional[threading.Event] = None,
    data_dir: Optional[str] = None,
    snapshot_interval: int = 256,
) -> int:
    """Run the daemon until interrupted; returns a process exit code.

    With ``data_dir`` the service is durable: state is recovered before
    the socket binds, and a SIGTERM/SIGINT triggers a final snapshot +
    WAL compaction before exit (``kill -9`` skips that and recovers
    from the log on the next start instead).
    """
    server = make_server(
        host,
        port,
        cache_size=cache_size,
        default_budget=default_budget,
        verbose=verbose,
        data_dir=data_dir,
        snapshot_interval=snapshot_interval,
    )
    bound_host, bound_port = server.server_address[:2]
    durable = f", durable in {data_dir}" if data_dir is not None else ""
    print(
        f"repro serve: listening on http://{bound_host}:{bound_port} "
        f"(POST /v1/solve, GET /v1/solvers, GET /v1/healthz, "
        f"POST /v1/dynamic/*{durable})",
        file=sys.stderr,
    )
    try:
        with graceful_shutdown(
            server, "repro serve: {signal} received — flushing state and exiting"
        ):
            if ready is not None:
                ready.set()
            server.serve_forever()
    except KeyboardInterrupt:
        print("repro serve: shutting down", file=sys.stderr)
    finally:
        server.server_close()
        seq = server.service.persist_now()
        if seq is not None:
            print(
                f"repro serve: state snapshotted at seq {seq}", file=sys.stderr
            )
        stats = server.service.stats()
        server.service.close()
        if stats.requests:
            from ..analysis import service_report

            print(service_report(stats), file=sys.stderr)
    return 0
