"""The shared HTTP layer, driven through both servers that use it.

``repro serve`` (the daemon) and ``repro cluster`` (the router) answer
framing and protocol errors through :mod:`repro.service.httpjson`, so
every test here runs against each of them.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading

import pytest

from repro.cluster import make_router
from repro.instances import random_tree
from repro.service import SolveRequest, make_server


def _start(server):
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread


@pytest.fixture(scope="module")
def daemon():
    srv = make_server("127.0.0.1", 0, cache_size=16)
    thread = _start(srv)
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        srv.service.close()
        thread.join(timeout=5)


@pytest.fixture(scope="module")
def router(daemon):
    host, port = daemon.server_address[:2]
    srv = make_router(
        "127.0.0.1", 0, workers={"worker-0": f"http://{host}:{port}"}
    )
    thread = _start(srv)
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)


@pytest.fixture(params=["daemon", "router"])
def address(request):
    return request.getfixturevalue(request.param).server_address[:2]


def _raw_exchange(address, data: bytes) -> bytes:
    """Send raw bytes, read until the server closes the connection."""
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(data)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def _assert_json_error(response, status: int) -> dict:
    assert response.status == status
    assert response.getheader("Content-Type") == "application/json"
    assert response.getheader("Connection") == "close"
    body = json.loads(response.read())
    assert body["schema"] == 1
    assert body["error"]["code"] == "bad_request"
    return body


def test_chunked_request_is_json_411_and_keeps_the_stream_in_step(address):
    # Chunked framing is not decoded: reading it as an empty body would
    # leave the chunk-size line to be parsed as the next request.  The
    # server must refuse it and close, so the client's next request
    # goes out on a fresh connection and is answered normally.
    payload = json.dumps(
        SolveRequest(instance=random_tree(3, 6, capacity=8, seed=1)).to_wire()
    ).encode("utf-8")
    chunked = b"%x\r\n%s\r\n0\r\n\r\n" % (len(payload), payload)
    conn = http.client.HTTPConnection(*address, timeout=10)
    try:
        # Pre-framed bytes go out with the headers in one write, so the
        # server holds the whole request when it answers.
        conn.request(
            "POST", "/v1/solve", body=chunked,
            headers={
                "Content-Type": "application/json",
                "Transfer-Encoding": "chunked",
            },
        )
        error = _assert_json_error(conn.getresponse(), 411)
        assert "Transfer-Encoding" in error["error"]["message"]
        conn.request("GET", "/v1/healthz")
        resp = conn.getresponse()
        assert resp.status == 200
        assert json.loads(resp.read())["status"] == "ok"
    finally:
        conn.close()


def test_unsupported_method_is_json_501(address):
    conn = http.client.HTTPConnection(*address, timeout=10)
    try:
        conn.request("PUT", "/v1/solve", body=b"{}")
        error = _assert_json_error(conn.getresponse(), 501)
        assert "PUT" in error["error"]["message"]
    finally:
        conn.close()


def test_malformed_request_line_is_json_400(address):
    raw = _raw_exchange(address, b"GET /v1/healthz junk HTTP/1.1\r\n\r\n")
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("iso-8859-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in header_lines)
    assert status_line.startswith("HTTP/1.1 400")
    assert headers["Content-Type"] == "application/json"
    assert headers["Connection"] == "close"
    assert int(headers["Content-Length"]) == len(body)
    error = json.loads(body)["error"]
    assert error["code"] == "bad_request"
    assert "Bad request syntax" in error["message"]
