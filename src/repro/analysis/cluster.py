"""Rendering for ``repro loadtest`` reports and router health.

``cluster_report`` accepts either a live
:class:`~repro.cluster.loadtest.LoadTestReport` or its ``to_dict()``
JSON form (the shape the CI artifact stores), so a persisted report
renders identically to a fresh run — round-trip-tested in
``tests/test_cluster_loadtest.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.loadtest import LoadTestReport

__all__ = ["cluster_report", "render_worker_health"]


def _coerce(report: "Union[LoadTestReport, dict]") -> "LoadTestReport":
    from ..cluster.loadtest import LoadTestReport

    if isinstance(report, LoadTestReport):
        return report
    return LoadTestReport.from_dict(dict(report))


def cluster_report(report: "Union[LoadTestReport, dict]") -> str:
    """Human-readable summary of one load-test run."""
    r = _coerce(report)
    lat = r.latency_ms
    lines = [
        f"cluster loadtest — {r.url}  (mix={r.mix} seed={r.seed})",
        (
            f"  requests    : {r.n_requests} "
            f"(ok {r.ok}, solver-level failures {r.solver_errors}, "
            f"failed {r.failed})"
        ),
        (
            f"  concurrency : {r.concurrency} threads over "
            f"{r.distinct_instances} distinct instances"
        ),
        (
            f"  wall time   : {r.wall_s:.2f} s  "
            f"({r.throughput_rps:.1f} req/s, "
            f"{r.cache_hit_rps:.1f} cache-hit/s)"
        ),
        (
            "  latency ms  : "
            f"mean {lat.get('mean', 0.0):.1f}  "
            f"p50 {lat.get('p50', 0.0):.1f}  "
            f"p90 {lat.get('p90', 0.0):.1f}  "
            f"p99 {lat.get('p99', 0.0):.1f}  "
            f"max {lat.get('max', 0.0):.1f}"
        ),
        (
            f"  cache       : {r.cache_hits} hits "
            f"({r.cache_hit_rate * 100:.1f}% of ok)"
        ),
        f"  error rate  : {r.error_rate * 100:.2f}%",
    ]
    if r.per_worker:
        lines.append("  per worker:")
        width = max(len(node) for node in r.per_worker)
        for node in sorted(r.per_worker):
            s = r.per_worker[node]
            lines.append(
                f"    {node:<{width}} : {s.requests:>5} req  "
                f"{s.cache_hits:>5} hits  {s.errors:>3} err  "
                f"mean {s.latency_ms_mean:6.1f} ms"
            )
    return "\n".join(lines)


def render_worker_health(healthz: dict) -> str:
    """Render a router ``/v1/healthz`` payload as a worker table."""
    ring = healthz.get("ring", {})
    lines = [
        (
            f"cluster health: {healthz.get('status', '?')} — "
            f"{ring.get('workers_alive', '?')}/"
            f"{ring.get('workers_total', '?')} workers, "
            f"{ring.get('vnodes', '?')} vnodes"
        ),
    ]
    workers = healthz.get("workers", [])
    if workers:
        width = max(len(str(w.get("node_id", "?"))) for w in workers)
        for w in workers:
            probe = w.get("last_probe_ms")
            probe_txt = f"{probe:6.1f} ms" if probe is not None else "  never"
            lines.append(
                f"  {str(w.get('node_id', '?')):<{width}} "
                f"{'up  ' if w.get('alive') else 'DOWN'} "
                f"share {w.get('ring_share', 0.0) * 100:5.1f}%  "
                f"probe {probe_txt}  "
                f"req {w.get('requests', 0)}  "
                f"retries {w.get('retries', 0)}"
            )
    return "\n".join(lines)
