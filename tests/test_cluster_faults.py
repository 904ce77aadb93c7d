"""Fault injection: real subprocess workers, real ``kill -9``.

The contract under test (the tentpole acceptance criterion): a SIGKILL
of any single worker *while a concurrent loadtest is in flight* is
invisible to clients — the router retries against ring successors, so
the report ends with **zero failed requests** — and the killed worker
restarted over its own ``--data-dir`` comes back with its result cache
recovered from the WAL/snapshot state it logged before dying.

These tests spawn real ``repro serve`` child processes (via
:class:`~repro.cluster.workers.ClusterManager`) and are therefore the
slowest in the suite; everything timing-independent lives in
``tests/test_cluster_router.py``.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cluster import (
    WORKER_HEADER,
    HashRing,
    make_router,
    request_mix,
    run_loadtest,
)
from repro.cluster import router as router_module
from repro.cluster.workers import ClusterManager
from repro.service import SolveRequest
from repro.service.fingerprint import instance_fingerprint

N_WORKERS = 3


@pytest.fixture()
def cluster(tmp_path, monkeypatch):
    """3 durable subprocess workers + an in-thread router."""
    monkeypatch.setattr(router_module, "BACKOFF_BASE_S", 0.01)
    monkeypatch.setattr(router_module, "BACKOFF_CAP_S", 0.05)
    manager = ClusterManager(
        N_WORKERS, str(tmp_path / "state"), snapshot_interval=8
    )
    router = make_router(
        "127.0.0.1",
        0,
        workers=manager.urls(),
        down_after=1,           # eject on the first failure: fast failover
        probe_interval=0.2,
    )
    thread = threading.Thread(target=router.serve_forever, daemon=True)
    thread.start()
    host, port = router.server_address[:2]
    try:
        yield manager, router, f"http://{host}:{port}"
    finally:
        router.shutdown()
        router.server_close()
        manager.stop_all(graceful=False)


def _post_via(url: str, payload: dict) -> tuple:
    """POST ``payload``; ``(answer, worker that served it)``."""
    req = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=30) as resp:
        return json.loads(resp.read()), resp.headers.get(WORKER_HEADER)


def _post(url: str, payload: dict) -> dict:
    return _post_via(url, payload)[0]


def _status_via(url: str, payload: dict) -> tuple:
    """POST ``payload``; ``(HTTP status, worker that served it)``."""
    try:
        return 200, _post_via(url, payload)[1]
    except urllib.error.HTTPError as exc:
        return exc.code, exc.headers.get(WORKER_HEADER)


class TestKillDuringTraffic:
    def test_kill9_mid_loadtest_loses_zero_requests(self, cluster):
        manager, router, url = cluster
        report_holder = {}

        def _drive() -> None:
            report_holder["report"] = run_loadtest(
                url, n_requests=200, concurrency=8, seed=0, mix="quick"
            )

        driver = threading.Thread(target=_drive)
        driver.start()
        # Let traffic build, then SIGKILL the worker owning the hottest
        # fingerprint — the worst-case victim for the cache.  A 200-
        # request quick-mix run takes ~0.4 s against subprocess workers,
        # so 0.1 s lands the kill squarely mid-stream.
        time.sleep(0.1)
        fps = [r.instance_fp for r in request_mix(0, 200, "quick")]
        hottest = max(set(fps), key=fps.count)
        victim = HashRing(manager.urls()).route(hottest)
        manager.worker(victim).kill9()
        driver.join(timeout=120)
        assert not driver.is_alive(), "loadtest hung after kill -9"
        report = report_holder["report"]
        assert report.failed == 0, (
            f"client saw {report.failed} failed requests after kill -9 of "
            f"{victim}: {report.to_dict()}"
        )
        assert report.ok == 200
        # Traffic really did reach more than the victim.
        assert len(report.per_worker) >= 2

    def test_restarted_worker_recovers_cache_from_data_dir(self, cluster):
        manager, router, url = cluster
        # Warm the cluster: every quick-mix instance solved and cached.
        mix = request_mix(0, 40, "quick")
        report = run_loadtest(
            url, n_requests=40, concurrency=4, seed=0, mix="quick"
        )
        assert report.failed == 0
        victim = "worker-1"
        ring = HashRing(manager.urls())
        owned = {r.instance_fp: r for r in mix if ring.route(r.instance_fp) == victim}
        assert owned, "the quick mix routes no key to the victim"
        worker = manager.worker(victim)
        # Give the worker a moment to finish logging, then SIGKILL —
        # no flush, no snapshot.
        time.sleep(0.2)
        worker.kill9()
        assert not worker.alive
        worker.restart()
        assert worker.alive
        # Its durable cache survived: every key it served before the
        # kill is answered from the cache it replayed, not recomputed.
        for req in owned.values():
            answer = _post(worker.base_url + "/v1/solve", req.wire)
            assert answer["status"] == "ok"
            assert answer["diagnostics"]["cache_hit"] is True


class TestRejoin:
    def test_rejoined_worker_serves_its_keys_from_cache(self, cluster):
        manager, router, url = cluster
        mix = request_mix(0, 60, "quick")
        report = run_loadtest(
            url, n_requests=60, concurrency=4, seed=0, mix="quick"
        )
        assert report.failed == 0
        victim = "worker-2"
        ring = HashRing(manager.urls())
        owned = {r.instance_fp: r for r in mix if ring.route(r.instance_fp) == victim}
        assert owned, "the quick mix routes no key to the victim"
        view = next(
            w for w in router.state.all_workers() if w.node_id == victim
        )
        worker = manager.worker(victim)
        worker.kill9()
        router.prober.probe(view)       # detect the death -> eject
        assert not view.alive
        # While the victim is gone its keys are served by the survivors.
        first = next(iter(owned.values()))
        again = _post(url + "/v1/solve", first.wire)
        assert again["status"] == "ok"
        worker.restart()
        router.prober.probe(view)       # detect the rebirth -> rejoin
        assert view.alive
        # Rejoin is own-WAL recovery plus the old ring arcs: through
        # the router, every key the victim served before the kill is
        # answered by the victim, from its cache.
        for req in owned.values():
            answer, served_by = _post_via(url + "/v1/solve", req.wire)
            assert served_by == victim
            assert answer["status"] == "ok"
            assert answer["diagnostics"]["cache_hit"] is True


class TestDurableRouting:
    def test_fingerprint_routing_survives_worker_restart(self, cluster):
        manager, router, url = cluster
        from repro.instances import random_tree

        inst = random_tree(6, 12, capacity=15, dmax=5.0, seed=5)
        fp = instance_fingerprint(inst)
        owner = HashRing(manager.urls()).route(fp)
        wire = SolveRequest(instance=inst).to_wire()
        first = _post(url + "/v1/solve", wire)
        assert first["status"] == "ok"
        # Restart the owner (same port, same data-dir): the second solve
        # routes to the same worker and hits its recovered cache.
        manager.worker(owner).restart()
        second = _post(url + "/v1/solve", wire)
        assert second["status"] == "ok"
        assert second["diagnostics"]["cache_hit"] is True
        assert second["placement"] == first["placement"]

    def test_sessions_route_across_worker_kill_and_router_restart(
        self, cluster
    ):
        manager, router, url = cluster
        from repro.instances import random_tree

        inst = random_tree(6, 12, capacity=15, dmax=5.0, seed=9)
        start = {
            "schema": 1,
            "instance": SolveRequest(instance=inst).to_wire()["instance"],
        }
        owner, successor = HashRing(manager.urls()).successors(
            instance_fingerprint(inst), limit=2
        )
        first, served = _post_via(url + "/v1/dynamic/start", start)
        assert served == owner
        # The same instance again with its owner dead fails over to the
        # ring successor, which opens a second session under its name.
        manager.worker(owner).kill9()
        second, served = _post_via(url + "/v1/dynamic/start", start)
        assert served == successor
        ids = {owner: first["session_id"], successor: second["session_id"]}
        assert ids[owner] != ids[successor]
        for node, sid in ids.items():
            assert sid.endswith(f"@{node}")

        def apply(router_url: str, node: str) -> tuple:
            return _status_via(router_url + "/v1/dynamic/apply", {
                "schema": 1, "session_id": ids[node],
                "events": [{"kind": "capacity", "capacity": 14}],
            })

        assert apply(url, successor) == (200, successor)
        # The dead owner's session is not moved to another worker ...
        assert apply(url, owner) == (503, None)
        # ... and answers again once its worker recovers it from the WAL.
        manager.worker(owner).restart()
        assert apply(url, owner) == (200, owner)
        # A restarted router holds no session table, yet routes both.
        router.shutdown()
        router.server_close()
        again = make_router("127.0.0.1", 0, workers=manager.urls())
        threading.Thread(target=again.serve_forever, daemon=True).start()
        host, port = again.server_address[:2]
        try:
            for node in ids:
                assert apply(f"http://{host}:{port}", node) == (200, node)
        finally:
            again.shutdown()
            again.server_close()
