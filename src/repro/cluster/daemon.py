"""``repro cluster`` — run a router plus a locally managed worker fleet.

One process-tree: N ``repro serve`` worker subprocesses (each with its
own durable ``--data-dir`` under ``--data-root``) and the consistent-
hash router in the foreground.  SIGTERM/SIGINT stop the router, then
terminate the workers gracefully (each snapshots + compacts its own
state), so the next ``repro cluster`` over the same ``--data-root``
restarts warm.

Attach mode (``worker_urls``) skips the fleet management entirely and
routes across daemons someone else operates; shutdown then leaves the
workers running.
"""

from __future__ import annotations

import sys
import threading
from typing import Dict, Optional

from ..service.httpjson import graceful_shutdown
from .router import make_router
from .workers import ClusterManager

__all__ = ["run_cluster"]


def run_cluster(
    host: str = "127.0.0.1",
    port: int = 8360,
    *,
    n_workers: int = 3,
    data_root: Optional[str] = None,
    worker_urls: Optional[Dict[str, str]] = None,
    probe_interval: float = 1.0,
    down_after: int = 2,
    snapshot_interval: int = 64,
    verbose: bool = False,
    ready: Optional[threading.Event] = None,
) -> int:
    """Run the cluster until interrupted; returns a process exit code.

    Either spawns ``n_workers`` locally (``data_root`` required — each
    worker persists under ``<data_root>/worker-<i>``) or attaches to
    ``worker_urls`` (``node_id -> base_url``).  ``ready`` is set once
    the router socket is bound, for test harnesses.
    """
    manager: Optional[ClusterManager] = None
    if worker_urls:
        workers = dict(worker_urls)
    else:
        if data_root is None:
            raise ValueError("data_root is required when spawning workers")
        manager = ClusterManager(
            n_workers, data_root, snapshot_interval=snapshot_interval, host=host
        )
        workers = manager.urls()
    try:
        server = make_router(
            host,
            port,
            workers=workers,
            down_after=down_after,
            probe_interval=probe_interval,
            verbose=verbose,
        )
    except Exception:
        if manager is not None:
            manager.stop_all()
        raise
    bound_host, bound_port = server.server_address[:2]
    managed = (
        f"{len(workers)} managed worker(s) under {data_root}"
        if manager is not None
        else f"{len(workers)} attached worker(s)"
    )
    print(
        f"repro cluster: router listening on http://{bound_host}:{bound_port} "
        f"({managed}; probe every {probe_interval}s)",
        file=sys.stderr,
    )
    for node_id, url in sorted(workers.items()):
        print(f"repro cluster:   {node_id} -> {url}", file=sys.stderr)
    try:
        with graceful_shutdown(
            server,
            "repro cluster: {signal} received — stopping router and workers",
        ):
            server.start_prober()
            if ready is not None:
                ready.set()
            server.serve_forever()
    except KeyboardInterrupt:
        print("repro cluster: shutting down", file=sys.stderr)
    finally:
        server.server_close()
        if manager is not None:
            manager.stop_all()
            print(
                "repro cluster: workers stopped (state snapshotted per "
                "data-dir)",
                file=sys.stderr,
            )
    return 0
