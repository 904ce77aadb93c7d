"""HTTP/JSON plumbing shared by ``repro serve`` and ``repro cluster``.

The placement daemon (:mod:`repro.service.daemon`) and the cluster
router (:mod:`repro.cluster.router`) speak one wire protocol, so every
HTTP decision they share is made here, once:

* HTTP/1.1 keep-alive, with one access-log line per request on stderr
  only when the server is ``verbose``;
* JSON responses: ``Content-Type`` and ``Content-Length`` headers, then
  the body, with ``Connection: close`` whenever the server will drop
  the connection after answering;
* the error envelope ``{"schema": 1, "error": {"code", "message"}}``,
  also for the errors the stdlib raises itself (malformed request
  line, unsupported method, oversized headers), which it would
  otherwise send as HTML;
* request bodies: ``Content-Length`` framing only, capped at
  :data:`MAX_BODY_BYTES`.  A request carrying ``Transfer-Encoding`` is
  answered 411 and the connection closed — its unread body would be
  parsed as the next request line;
* route dispatch from the handler's ``GET_ROUTES``/``POST_ROUTES``
  tables; an unknown POST path is a 404 that closes the connection,
  for the same unread-body reason;
* SIGTERM/SIGINT -> leave ``serve_forever`` so the caller's shutdown
  path runs (:func:`graceful_shutdown`).
"""

from __future__ import annotations

import json
import signal
import sys
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Iterator, Mapping, Optional

from .schema import WIRE_SCHEMA_VERSION, ErrorCode

__all__ = [
    "MAX_BODY_BYTES",
    "JSONHandler",
    "JSONServer",
    "error_body",
    "graceful_shutdown",
]

MAX_BODY_BYTES = 32 * 1024 * 1024  # refuse absurd payloads outright


def error_body(code: str, message: str) -> bytes:
    """The encoded error envelope every non-solver failure answers with."""
    return json.dumps(
        {
            "schema": WIRE_SCHEMA_VERSION,
            "error": {"code": code, "message": message},
        }
    ).encode("utf-8")


class JSONServer(ThreadingHTTPServer):
    """ThreadingHTTPServer base: one daemon thread per connection."""

    daemon_threads = True
    #: Write an access-log line per request to stderr.
    verbose = False


class JSONHandler(BaseHTTPRequestHandler):
    """Request handler base: JSON responses, bodies and route dispatch.

    Subclasses fill ``GET_ROUTES`` (path -> ``route(handler)``) and
    ``POST_ROUTES`` (path -> ``route(handler, payload, body)``, called
    with the decoded JSON payload and the raw body bytes).
    """

    server: JSONServer  # narrowed for type checkers

    protocol_version = "HTTP/1.1"
    GET_ROUTES: Dict[str, Callable[..., None]] = {}
    POST_ROUTES: Dict[str, Callable[..., None]] = {}

    def log_message(self, fmt: str, *args: object) -> None:  # noqa: A003
        if self.server.verbose:
            sys.stderr.write(f"{self.address_string()} - {fmt % args}\n")

    # -- responses -----------------------------------------------------
    def _send_json(self, status: int, payload: dict) -> None:
        self._send_bytes(status, json.dumps(payload).encode("utf-8"))

    def _send_bytes(
        self,
        status: int,
        body: bytes,
        headers: Optional[Mapping[str, str]] = None,
    ) -> None:
        """Send ``body`` as a JSON response with optional extra headers."""
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if self.close_connection:
            # Tell well-behaved clients the connection is done so they
            # reconnect instead of reusing a socket we will close.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, code: str, message: str) -> None:
        self._send_bytes(status, error_body(code, message))

    def send_error(
        self, code: int, message: Optional[str] = None, explain: Optional[str] = None
    ) -> None:
        """Errors the stdlib raises itself, in the JSON envelope.

        Keeps the status and the stdlib's ``Connection: close``;
        ``explain`` (the stdlib's HTML detail) is dropped.
        """
        self.log_error("code %d, message %s", code, message)
        if message is None:
            message = self.responses.get(code, ("error",))[0]
        self.close_connection = True
        self._send_error_json(code, ErrorCode.BAD_REQUEST, message)

    # -- requests ------------------------------------------------------
    def parse_request(self) -> bool:
        """The stdlib parse, then refuse ``Transfer-Encoding`` framing.

        Such bodies are not decoded; left unread, they would be parsed
        as the next request on the connection.
        """
        if not super().parse_request():
            return False
        if "Transfer-Encoding" in self.headers:
            self.close_connection = True
            self._send_error_json(
                411,
                ErrorCode.BAD_REQUEST,
                "Transfer-Encoding is not supported; send a Content-Length body",
            )
            return False
        return True

    def _read_body(self) -> Optional[bytes]:
        """The request body, or ``None`` once a bad length was answered."""
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            # The unread body would desync the keep-alive stream (the
            # server would parse body bytes as the next request line),
            # so drop the connection with the error.
            self.close_connection = True
            self._send_error_json(
                413 if length > MAX_BODY_BYTES else 400,
                ErrorCode.BAD_REQUEST,
                f"bad Content-Length {self.headers.get('Content-Length')!r}",
            )
            return None
        return self.rfile.read(length)

    # -- dispatch ------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        route = self.GET_ROUTES.get(self.path)
        if route is None:
            self._send_error_json(
                404, ErrorCode.BAD_REQUEST, f"no such endpoint: {self.path}"
            )
            return
        route(self)

    def do_POST(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        route = self.POST_ROUTES.get(self.path)
        if route is None:
            # The unread POST body would desync keep-alive (parsed as
            # the next request line), so drop the connection too.
            self.close_connection = True
            self._send_error_json(
                404, ErrorCode.BAD_REQUEST, f"no such endpoint: {self.path}"
            )
            return
        body = self._read_body()
        if body is None:
            return
        try:
            payload = json.loads(body or b"null")
        except json.JSONDecodeError as exc:
            self._send_error_json(
                400, ErrorCode.BAD_REQUEST, f"body is not JSON: {exc}"
            )
            return
        route(self, payload, body)


@contextmanager
def graceful_shutdown(server: JSONServer, notice: str) -> Iterator[None]:
    """SIGTERM/SIGINT stop ``server.serve_forever`` inside the block.

    ``notice`` is printed to stderr on the signal, with ``{signal}``
    replaced by its name.  The previous handlers are restored on exit.
    Only possible from the main thread (a CPython restriction on
    ``signal.signal``); background-thread servers — the test harness —
    keep the default handlers.  The handler must not call
    ``server.shutdown()`` directly: it runs *on* the main thread, which
    is blocked inside ``serve_forever``, and ``shutdown()`` waits for
    that loop to exit — a deadlock — so a helper thread issues it.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _graceful(signum: int, frame: object) -> None:
        print(notice.format(signal=signal.Signals(signum).name), file=sys.stderr)
        threading.Thread(
            target=server.shutdown, name="graceful-shutdown", daemon=True
        ).start()

    previous = {
        signum: signal.signal(signum, _graceful)
        for signum in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        yield
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
