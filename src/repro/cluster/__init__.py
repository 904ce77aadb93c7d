"""Sharded multi-node placement cluster.

The cluster layer scales ``repro serve`` from one ThreadingHTTPServer
to N of them behind a consistent-hash router, without changing the wire
protocol a client sees::

    client ──► router (repro cluster)
                 │  blake2b ring over instance fingerprints
                 ├──► worker-0  repro serve --data-dir .../worker-0
                 ├──► worker-1  repro serve --data-dir .../worker-1
                 └──► worker-2  repro serve --data-dir .../worker-2

Modules::

    ring      consistent-hash ring (virtual nodes, minimal remap)
    router    HTTP front-end: fingerprint routing, health probes,
              failover with bounded exponential backoff
    workers   worker subprocess lifecycle (spawn / kill -9 / restart)
    loadtest  deterministic seeded load generator + report
    daemon    the ``repro cluster`` verb entry point

See ``docs/cluster.md`` for the failover contract, the loadtest metrics
glossary and the ops runbook.
"""

from ..service.httpjson import WORKER_HEADER
from .daemon import run_cluster
from .loadtest import (
    MIXES,
    LoadRequest,
    LoadTestReport,
    WorkerSlice,
    request_mix,
    run_loadtest,
)
from .ring import DEFAULT_VNODES, HashRing, ring_point
from .router import ClusterState, RouterServer, WorkerView, make_router
from .workers import ClusterManager, WorkerProcess, WorkerSpawnError

__all__ = [
    "HashRing",
    "DEFAULT_VNODES",
    "ring_point",
    "ClusterState",
    "RouterServer",
    "WorkerView",
    "make_router",
    "WORKER_HEADER",
    "WorkerProcess",
    "ClusterManager",
    "WorkerSpawnError",
    "MIXES",
    "LoadRequest",
    "LoadTestReport",
    "WorkerSlice",
    "request_mix",
    "run_loadtest",
    "run_cluster",
]
