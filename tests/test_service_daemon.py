"""End-to-end HTTP tests for the `repro serve` daemon."""

from __future__ import annotations

import dataclasses
import json
import re
import threading
import urllib.error
import urllib.request

import pytest

from repro import Placement, Policy, ProblemInstance, Tree, check_placement
from repro.core.errors import InvalidInstanceError
from repro.dynamic import DemandEvent, FailureEvent, apply_events_batch, event_to_wire
from repro.instances import random_tree
from repro.instances.io import instance_to_dict
from repro.service import PlacementService, SolveRequest, SolveResponse, make_server
from repro.service.fingerprint import instance_fingerprint
from repro.service.httpjson import WORKER_HEADER


@pytest.fixture(scope="module")
def server():
    srv = make_server("127.0.0.1", 0, cache_size=16)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        srv.service.close()
        thread.join(timeout=5)


@pytest.fixture(scope="module")
def base_url(server):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


def _get(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=10) as resp:
        return json.loads(resp.read())


def _post(url: str, payload: dict) -> dict:
    req = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=30) as resp:
        return json.loads(resp.read())


@pytest.fixture
def inst():
    return random_tree(6, 12, capacity=15, dmax=5.0, seed=7)


@pytest.fixture
def durable(tmp_path):
    """A daemon with a data dir, so a test can count its log records."""
    srv = make_server("127.0.0.1", 0, data_dir=str(tmp_path / "state"))
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    host, port = srv.server_address[:2]
    try:
        yield srv, f"http://{host}:{port}"
    finally:
        srv.shutdown()
        srv.server_close()
        srv.service.close()
        thread.join(timeout=5)


# A dynamic/start body is a solve body: both routes check it alike.
SOLVE_ROUTES = pytest.mark.parametrize(
    "route", ["/v1/solve", "/v1/dynamic/start"], ids=["solve", "start"]
)


class TestHealthz:
    def test_ok_with_stats(self, base_url):
        data = _get(base_url + "/v1/healthz")
        assert data["status"] == "ok"
        assert "version" in data
        assert "requests" in data["stats"]
        assert "latency_ms" in data["stats"]


class TestSolvers:
    def test_lists_registry_with_metadata(self, base_url):
        data = _get(base_url + "/v1/solvers")
        names = {s["name"] for s in data["solvers"]}
        assert {"single-gen", "exact", "multiple-bin"} <= names
        for s in data["solvers"]:
            assert {"name", "exact", "policy", "in_auto_chain"} <= set(s)


class TestSolve:
    def test_numbers_beyond_int64_keep_their_status(self, base_url):
        # The content key packs int64 columns, but a demand or a
        # capacity of 10**20 is a valid instance: it must be answered
        # (infeasible / ok), in-process and over HTTP.
        huge = 10**20
        cases = [
            (ProblemInstance(Tree([-1, 0, 0], [0, 1, 1], [0, huge, 3]), 5), "infeasible"),
            (ProblemInstance(Tree([-1, 0, 0], [0, 1, 1], [0, 4, 3]), huge), "ok"),
        ]
        with PlacementService() as service:
            for instance, status in cases:
                request = SolveRequest(instance=instance)
                assert service.solve(request).status == status
                assert _post(base_url + "/v1/solve", request.to_wire())["status"] == status

    def test_solve_returns_checker_valid_placement(self, base_url, inst):
        wire = _post(
            base_url + "/v1/solve", SolveRequest(instance=inst).to_wire()
        )
        resp = SolveResponse.from_wire(wire)
        assert resp.ok
        check_placement(inst, resp.placement)
        assert wire["schema"] == 1

    def test_repeat_request_is_cache_hit(self, base_url):
        inst = random_tree(5, 10, capacity=15, dmax=5.0, seed=123)
        payload = SolveRequest(instance=inst).to_wire()
        first = SolveResponse.from_wire(_post(base_url + "/v1/solve", payload))
        second = SolveResponse.from_wire(_post(base_url + "/v1/solve", payload))
        assert not first.diagnostics.cache_hit
        assert second.diagnostics.cache_hit
        assert second.placement == first.placement

    def test_explicit_solver_and_request_id(self, base_url, inst):
        payload = SolveRequest(
            instance=inst, solver="local", request_id="req-42"
        ).to_wire()
        resp = SolveResponse.from_wire(_post(base_url + "/v1/solve", payload))
        assert resp.solver == "local"
        assert resp.request_id == "req-42"

    @SOLVE_ROUTES
    def test_unknown_solver_is_http_400(self, durable, inst, route):
        srv, url = durable
        payload = SolveRequest(instance=inst, solver="nope").to_wire()
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(url + route, payload)
        assert err.value.code == 400
        body = json.loads(err.value.read())
        assert body["error"]["code"] == "unknown_solver"
        assert "nope" in body["error"]["message"]
        assert srv.service.stats().durability.records_appended == 0

    def test_solver_level_failures_are_http_200(self, base_url):
        # Infeasible is a solve outcome, not a caller mistake.
        bad = random_tree(
            3, 4, capacity=2, dmax=None, request_range=(5, 9), seed=1
        )
        wire = _post(
            base_url + "/v1/solve", SolveRequest(instance=bad).to_wire()
        )
        resp = SolveResponse.from_wire(wire)
        assert resp.status == "infeasible"
        assert resp.error.code == "infeasible"

    def test_malformed_json_is_http_400(self, base_url):
        req = urllib.request.Request(
            base_url + "/v1/solve", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 400
        assert json.loads(err.value.read())["error"]["code"] == "bad_request"

    @SOLVE_ROUTES
    def test_wrong_schema_version_is_http_400(self, durable, inst, route):
        srv, url = durable
        payload = SolveRequest(instance=inst).to_wire()
        payload["schema"] = 999
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(url + route, payload)
        assert err.value.code == 400
        assert json.loads(err.value.read())["error"]["code"] == "bad_request"
        assert srv.service.stats().durability.records_appended == 0


class TestRouting:
    def test_unknown_path_is_json_404(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(base_url + "/v2/frobnicate")
        assert err.value.code == 404
        assert "error" in json.loads(err.value.read())

    def test_post_to_get_endpoint_is_404(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(base_url + "/v1/healthz", {})
        assert err.value.code == 404

    def test_post_404_does_not_desync_keep_alive(self, base_url, inst):
        # One persistent connection: a bodied POST to a bad path, then
        # a valid solve.  The unread body must not be parsed as the
        # next request line.
        import http.client
        from urllib.parse import urlparse

        u = urlparse(base_url)
        conn = http.client.HTTPConnection(u.hostname, u.port, timeout=10)
        try:
            conn.request(
                "POST", "/v1/nope", body=json.dumps({"x": 1}),
                headers={"Content-Type": "application/json"},
            )
            assert conn.getresponse().read() and True  # drain the 404
            conn.request(
                "POST", "/v1/solve",
                body=json.dumps(SolveRequest(instance=inst).to_wire()),
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            body = json.loads(resp.read())
            assert resp.status == 200
            assert SolveResponse.from_wire(body).ok
        finally:
            conn.close()

    def test_cache_entries_cannot_be_posted(self, base_url):
        # No endpoint may put an answer into the result cache: a forged
        # 1-replica `ok` entry posted to the old warm-up path is a 404,
        # and the next solve is computed and checker-valid, not a hit.
        inst = random_tree(9, 18, capacity=7, dmax=None, seed=123)
        with PlacementService() as svc:
            honest = svc.solve(SolveRequest(instance=inst))
        assert honest.ok and honest.n_replicas > 1
        root = inst.tree.root
        forged = dataclasses.replace(
            honest, n_replicas=1, placement=Placement([root], {})
        )
        entry = {
            "key": honest.diagnostics.fingerprint,
            "instance_fp": instance_fingerprint(inst),
            "response": forged.to_wire(),
        }
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(base_url + "/v1/cache/warm", {"schema": 1, "entries": [entry]})
        assert err.value.code == 404
        assert "error" in json.loads(err.value.read())
        answer = SolveResponse.from_wire(
            _post(base_url + "/v1/solve", SolveRequest(instance=inst).to_wire())
        )
        assert answer.ok and not answer.diagnostics.cache_hit
        assert answer.n_replicas == honest.n_replicas
        check_placement(inst, answer.placement)

    def test_healthz_reflects_traffic(self, base_url, inst):
        _post(base_url + "/v1/solve", SolveRequest(instance=inst).to_wire())
        stats = _get(base_url + "/v1/healthz")["stats"]
        assert stats["requests"] >= 1
        assert stats["by_status"].get("ok", 0) >= 1


class TestDynamicApplyKey:
    def test_apply_answers_its_own_content_key(self, base_url):
        inst = random_tree(8, 16, capacity=6, dmax=None, seed=7).with_policy(
            Policy.MULTIPLE
        )
        tree = inst.tree
        client, other = sorted(tree.clients)[:2]
        internal = tree.internal_nodes[1]
        started = _post(
            base_url + "/v1/dynamic/start",
            {"schema": 1, "instance": instance_to_dict(inst)},
        )
        sid = started["session_id"]
        assert started["fingerprint"] == instance_fingerprint(inst)
        # The expected state is folded here, apart from the daemon.
        state, failed = inst, frozenset()
        for batch, ok in (
            ([DemandEvent(client, 3)], True),
            ([DemandEvent(internal, 1)], False),  # rejected whole
            ([FailureEvent(internal)], True),
            ([DemandEvent(other, 5)], True),
        ):
            answer = _post(
                base_url + "/v1/dynamic/apply",
                {
                    "schema": 1,
                    "session_id": sid,
                    "events": [event_to_wire(e) for e in batch],
                },
            )
            try:
                state, newly_failed = apply_events_batch(state, batch)
                failed |= newly_failed
            except InvalidInstanceError:
                pass
            assert answer["ok"] is ok
            assert answer["fingerprint"] == instance_fingerprint(state, failed)


class TestSessionOwner:
    """``/v1/dynamic/start`` puts the router's worker name in the id."""

    @staticmethod
    def _start(url, inst, headers):
        req = urllib.request.Request(
            url + "/v1/dynamic/start",
            data=json.dumps(
                {"schema": 1, "instance": instance_to_dict(inst)}
            ).encode("utf-8"),
            headers={"Content-Type": "application/json", **headers},
        )
        try:
            with urllib.request.urlopen(req, timeout=30) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def test_id_names_the_owner_in_the_header(self, durable, inst):
        _srv, url = durable
        status, direct = self._start(url, inst, {})
        assert status == 200
        assert re.fullmatch(r"dyn-[0-9a-f]{32}", direct["session_id"])
        status, routed = self._start(url, inst, {WORKER_HEADER: "worker-7"})
        assert status == 200
        assert re.fullmatch(r"dyn-[0-9a-f]{32}@worker-7", routed["session_id"])

    @pytest.mark.parametrize("owner", ["", "a@b", "worker 0", "w" * 65])
    def test_malformed_owner_is_400_and_logs_nothing(self, durable, inst, owner):
        srv, url = durable
        status, answer = self._start(url, inst, {WORKER_HEADER: owner})
        assert status == 400
        assert answer["error"]["code"] == "bad_request"
        assert WORKER_HEADER in answer["error"]["message"]
        assert srv.service.dynamic_sessions() == []
        assert srv.service.stats().durability.records_appended == 0
