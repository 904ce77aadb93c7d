"""Router behaviour against in-thread workers.

Workers here are real :class:`~repro.service.daemon.PlacementServer`
instances running in daemon threads — full wire protocol, no subprocess
overhead — so routing, failover, session affinity and the healthz
observability contract are tested deterministically.  The prober is
driven *manually* (``server.prober.probe(...)``) instead of started, so
nothing in this file depends on timing.

The subprocess/kill -9 half of the story lives in
``tests/test_cluster_faults.py``.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.cluster import WORKER_HEADER, ClusterState, HashRing, make_router
from repro.cluster import router as router_module
from repro.cluster.router import RETRY_ROUNDS
from repro.instances import caterpillar, random_tree, star
from repro.service import SolveRequest, make_server
from repro.service.fingerprint import instance_fingerprint
from tests.test_service_wire import TWINS, twin_bodies

N_WORKERS = 3


def _start(server):
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread


def _url(server) -> str:
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


@pytest.fixture()
def cluster(monkeypatch):
    """Router + 3 in-thread workers; yields (router_server, workers)."""
    monkeypatch.setattr(router_module, "BACKOFF_BASE_S", 0.001)
    monkeypatch.setattr(router_module, "BACKOFF_CAP_S", 0.002)
    workers = {}
    servers = {}
    for i in range(N_WORKERS):
        srv = make_server("127.0.0.1", 0, cache_size=64)
        _start(srv)
        node = f"worker-{i}"
        servers[node] = srv
        workers[node] = _url(srv)
    router = make_router(
        "127.0.0.1",
        0,
        workers=workers,
        down_after=2,
    )
    _start(router)
    try:
        yield router, servers
    finally:
        router.shutdown()
        router.server_close()
        for srv in servers.values():
            try:
                srv.shutdown()
                srv.server_close()
                srv.service.close()
            except OSError:
                pass


def _get(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=10) as resp:
        return json.loads(resp.read())


def _post_raw(url: str, body: bytes):
    req = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


def _post(url: str, payload: dict):
    return _post_raw(url, json.dumps(payload).encode("utf-8"))


def _instances():
    return [
        random_tree(6, 12, capacity=15, dmax=5.0, seed=s) for s in range(8)
    ] + [
        caterpillar(8, capacity=8, dmax=5.0),
        star(10, capacity=6),
    ]


class TestRouting:
    def test_solve_matches_ring_and_is_sticky(self, cluster):
        router, servers = cluster
        ring = HashRing(servers)  # an independently built ring agrees
        for inst in _instances():
            wire = SolveRequest(instance=inst).to_wire()
            expected = ring.route(instance_fingerprint(inst))
            for _ in range(2):  # repeat = same worker = cache affinity
                status, payload, headers = _post(
                    _url(router) + "/v1/solve", wire
                )
                assert status == 200 and payload["status"] == "ok"
                assert headers[WORKER_HEADER] == expected
        # Second identical solve was served from that worker's cache.
        status, payload, _ = _post(
            _url(router) + "/v1/solve",
            SolveRequest(instance=_instances()[0]).to_wire(),
        )
        assert payload["diagnostics"]["cache_hit"] is True

    def test_load_spreads_over_multiple_workers(self, cluster):
        router, _servers = cluster
        hit = set()
        for inst in _instances():
            _, _, headers = _post(
                _url(router) + "/v1/solve",
                SolveRequest(instance=inst).to_wire(),
            )
            hit.add(headers[WORKER_HEADER])
        assert len(hit) >= 2

    def test_solvers_forwarded(self, cluster):
        router, _ = cluster
        data = _get(_url(router) + "/v1/solvers")
        assert {s["name"] for s in data["solvers"]} >= {"exact", "single-gen"}

    def test_unknown_endpoint_404(self, cluster):
        router, _ = cluster
        status, payload, _ = _post(_url(router) + "/v1/nope", {})
        assert status == 404
        assert payload["error"]["code"] == "bad_request"

    @pytest.mark.parametrize("name", ["", "a@b", "worker 0", "w" * 65])
    def test_worker_names_must_be_node_ids(self, name):
        # A name is the owner suffix of the session ids its worker mints.
        with pytest.raises(ValueError, match="does not match"):
            ClusterState({name: "http://127.0.0.1:1"})

    def test_bad_json_400_without_forwarding(self, cluster):
        router, _ = cluster
        status, payload, _ = _post_raw(
            _url(router) + "/v1/solve", b"{not json"
        )
        assert status == 400
        assert "JSON" in payload["error"]["message"]


class TestHealthz:
    def test_reports_ring_shares_and_probe_latency(self, cluster):
        router, _servers = cluster
        for view in router.state.all_workers():
            router.prober.probe(view)
        data = _get(_url(router) + "/v1/healthz")
        assert data["status"] == "ok"
        assert data["role"] == "router"
        assert data["ring"]["workers_alive"] == N_WORKERS
        assert data["ring"]["vnodes"] == 16
        shares = [w["ring_share"] for w in data["workers"]]
        assert sum(shares) == pytest.approx(1.0)
        assert all(s > 0 for s in shares)
        for w in data["workers"]:
            assert w["alive"] is True
            assert w["last_probe_ok"] is True
            assert w["last_probe_ms"] is not None and w["last_probe_ms"] >= 0

    def test_degraded_when_worker_dies_and_ring_share_moves(self, cluster):
        router, servers = cluster
        victim = "worker-1"
        servers[victim].shutdown()
        servers[victim].server_close()
        view = next(
            w for w in router.state.all_workers() if w.node_id == victim
        )
        for _ in range(router.state.down_after):
            router.prober.probe(view)
        data = _get(_url(router) + "/v1/healthz")
        assert data["status"] == "degraded"
        assert data["ring"]["workers_alive"] == N_WORKERS - 1
        by_node = {w["node_id"]: w for w in data["workers"]}
        assert by_node[victim]["alive"] is False
        assert by_node[victim]["last_probe_ok"] is False
        assert by_node[victim]["ring_share"] == 0.0
        # The survivors absorb the whole hash space.
        assert sum(w["ring_share"] for w in data["workers"]) == pytest.approx(
            1.0
        )


class TestFailover:
    def test_solve_survives_dead_worker(self, cluster):
        router, servers = cluster
        # Kill whichever worker owns the first instance's fingerprint.
        inst = random_tree(7, 14, capacity=15, dmax=5.0, seed=42)
        ring = HashRing(servers)
        owner = ring.route(instance_fingerprint(inst))
        servers[owner].shutdown()
        servers[owner].server_close()
        status, payload, headers = _post(
            _url(router) + "/v1/solve", SolveRequest(instance=inst).to_wire()
        )
        assert status == 200 and payload["status"] == "ok"
        assert headers[WORKER_HEADER] != owner
        assert headers[WORKER_HEADER] == ring.successors(
            instance_fingerprint(inst), limit=2
        )[1]
        # The transport failures it took got accounted against the dead
        # worker and the serving worker recorded a retry.
        by_node = {w.node_id: w for w in router.state.all_workers()}
        assert by_node[owner].consecutive_failures >= 1
        assert by_node[headers[WORKER_HEADER]].retries >= 1

    def test_all_workers_down_is_503(self, cluster):
        router, servers = cluster
        for srv in servers.values():
            srv.shutdown()
            srv.server_close()
        status, payload, _ = _post(
            _url(router) + "/v1/solve",
            SolveRequest(
                instance=random_tree(5, 10, capacity=12, dmax=5.0, seed=1)
            ).to_wire(),
        )
        assert status == 503
        assert payload["error"]["code"] == "solver_error"

    def test_4xx_relayed_verbatim_not_retried(self, cluster):
        router, _ = cluster
        wire = SolveRequest(
            instance=random_tree(5, 10, capacity=12, dmax=5.0, seed=2),
            solver="no-such-solver",
        ).to_wire()
        status, payload, _ = _post(_url(router) + "/v1/solve", wire)
        assert status == 400
        assert payload["error"]["code"] == "unknown_solver"
        assert all(w.retries == 0 for w in router.state.all_workers())

    def test_unpackable_body_gets_a_workers_400(self, cluster):
        # The router cannot key a body whose columns do not pack: it
        # sends it to one fixed worker, which rejects it, and relays
        # that 400 without retrying.
        router, _ = cluster
        inst = random_tree(5, 10, capacity=12, dmax=5.0, seed=2)
        solve = SolveRequest(instance=inst).to_wire()
        solve["instance"]["parents"] = "x"
        start = {"schema": 1, "instance": solve["instance"]}
        for path, body in (("/v1/solve", solve), ("/v1/dynamic/start", start)):
            status, payload, headers = _post(_url(router) + path, body)
            assert status == 400, path
            assert payload["error"]["code"] == "bad_request"
            assert headers[WORKER_HEADER] in router.state.workers
        views = router.state.all_workers()
        assert sum(w.requests for w in views) == 2
        assert all(w.retries == 0 for w in views)


    @pytest.mark.parametrize("case", TWINS, ids=lambda c: c.id)
    def test_malformed_twin_gets_the_workers_400(self, cluster, case):
        # The twin is cached on its worker first; the malformed body is
        # rejected with the decoder's error, relayed once, not retried.
        router, servers = cluster
        good, bad = twin_bodies(case)
        for _ in range(2):
            status, payload, _ = _post(_url(router) + "/v1/solve", good)
            assert status == 200
        assert payload["diagnostics"]["cache_hit"]
        with pytest.raises(Exception) as excinfo:
            SolveRequest.from_wire(bad)
        status, payload, headers = _post(_url(router) + "/v1/solve", bad)
        assert status == 400
        assert payload["error"] == {
            "code": "bad_request",
            "message": str(excinfo.value),
        }
        if case.id in ("instance-schema-2", "string-dmax", "unequal-columns"):
            # Keyed like the twin before; now the fixed unkeyed route.
            assert headers[WORKER_HEADER] == HashRing(servers).route("unkeyed")
        assert all(w.retries == 0 for w in router.state.all_workers())


def _start_body(seed: int = 9) -> dict:
    inst = random_tree(6, 12, capacity=15, dmax=5.0, seed=seed)
    return {"schema": 1,
            "instance": SolveRequest(instance=inst).to_wire()["instance"]}


def _apply_body(sid: str) -> dict:
    return {"schema": 1, "session_id": sid,
            "events": [{"kind": "capacity", "capacity": 15}]}


class TestSessions:
    def test_dynamic_session_pinned_to_opening_worker(self, cluster):
        router, _servers = cluster
        inst = random_tree(6, 12, capacity=15, dmax=5.0, seed=9)
        status, payload, headers = _post(
            _url(router) + "/v1/dynamic/start",
            {"schema": 1, "instance": json.loads(
                json.dumps(SolveRequest(instance=inst).to_wire()["instance"])
            )},
        )
        assert status == 200, payload
        sid = payload["session_id"]
        opener = headers[WORKER_HEADER]
        # The merged session listing names the worker holding it.
        listing = _get(_url(router) + "/v1/dynamic")
        assert [s["worker"] for s in listing["sessions"]] == [opener]
        for _ in range(3):
            status, payload, headers = _post(
                _url(router) + "/v1/dynamic/apply",
                {"schema": 1, "session_id": sid,
                 "events": [{"kind": "capacity", "capacity": 15}]},
            )
            assert status == 200, payload
            assert headers[WORKER_HEADER] == opener
        status, _, headers = _post(
            _url(router) + "/v1/dynamic/close",
            {"schema": 1, "session_id": sid},
        )
        assert status == 200
        assert headers[WORKER_HEADER] == opener
        # Closed on its worker: the session is gone.
        status, payload, _ = _post(
            _url(router) + "/v1/dynamic/apply",
            {"schema": 1, "session_id": sid,
             "events": [{"kind": "capacity", "capacity": 15}]},
        )
        assert status == 404

    def test_unknown_session_404(self, cluster):
        router, _ = cluster
        status, payload, _ = _post(
            _url(router) + "/v1/dynamic/apply",
            {"schema": 1, "session_id": "nope",
             "events": [{"kind": "capacity", "capacity": 15}]},
        )
        assert status == 404
        assert "no such session" in payload["error"]["message"]

    def test_session_id_must_be_string(self, cluster):
        router, _ = cluster
        status, _, _ = _post(
            _url(router) + "/v1/dynamic/apply", {"schema": 1, "session_id": 7}
        )
        assert status == 400

    def test_a_second_router_routes_the_session_from_its_id(self, cluster):
        # A router that never saw the start — a restarted one — routes
        # apply and close from the id, which names the opening worker.
        router, servers = cluster
        status, payload, headers = _post(
            _url(router) + "/v1/dynamic/start", _start_body()
        )
        assert status == 200, payload
        sid, opener = payload["session_id"], headers[WORKER_HEADER]
        assert sid.endswith(f"@{opener}")
        other = make_router(
            "127.0.0.1", 0, workers={n: _url(s) for n, s in servers.items()}
        )
        _start(other)
        try:
            for path, body in (
                ("/v1/dynamic/apply", _apply_body(sid)),
                ("/v1/dynamic/close", {"schema": 1, "session_id": sid}),
            ):
                status, payload, headers = _post(_url(other) + path, body)
                assert status == 200, (path, payload)
                assert headers[WORKER_HEADER] == opener
        finally:
            other.shutdown()
            other.server_close()

    def test_owner_less_id_is_404_through_the_router(self, cluster):
        # Opened straight on a worker, the id names no owner: the
        # router cannot route it, though the worker still holds it.
        router, servers = cluster
        worker = _url(servers["worker-0"])
        status, payload, _ = _post(worker + "/v1/dynamic/start", _start_body())
        assert status == 200 and "@" not in payload["session_id"]
        body = _apply_body(payload["session_id"])
        status, answer, _ = _post(_url(router) + "/v1/dynamic/apply", body)
        assert status == 404
        assert "no such session" in answer["error"]["message"]
        assert _post(worker + "/v1/dynamic/apply", body)[0] == 200

    def test_dead_session_worker_is_503_after_retry_rounds(self, cluster):
        # Session traffic runs the failover loop over its owner alone:
        # one attempt per round, never another worker.
        router, servers = cluster
        status, payload, headers = _post(
            _url(router) + "/v1/dynamic/start", _start_body()
        )
        assert status == 200, payload
        opener = headers[WORKER_HEADER]
        servers[opener].shutdown()
        servers[opener].server_close()
        status, answer, headers = _post(
            _url(router) + "/v1/dynamic/apply",
            _apply_body(payload["session_id"]),
        )
        assert status == 503
        assert answer["error"]["code"] == "solver_error"
        assert WORKER_HEADER not in headers
        views = {w.node_id: w for w in router.state.all_workers()}
        assert views[opener].consecutive_failures == RETRY_ROUNDS
        assert all(
            w.consecutive_failures == 0 for n, w in views.items() if n != opener
        )
