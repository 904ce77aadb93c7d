"""Worker process management for the placement cluster.

A *worker* is an ordinary ``repro serve`` daemon — the whole single-node
service stack, durability included — run as a child process with its own
``--data-dir``.  The cluster layer adds nothing inside the worker: the
router shards traffic across N of them, and this module owns their
lifecycle (spawn, readiness, kill, restart) for the ``repro cluster``
and ``repro loadtest --spawn`` verbs, the fault-injection test suite and
the CI cluster job.

Workers bind ephemeral ports (``--port 0``) and announce the bound
address on stderr; :class:`WorkerProcess` parses it back, so parallel
clusters never collide.  ``kill -9`` is a first-class operation here —
the whole point of giving each worker a data-dir is that a SIGKILLed
worker restarted over the same directory recovers its result cache and
dynamic sessions from the WAL/snapshot state (:mod:`repro.storage`).
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

__all__ = ["WorkerProcess", "ClusterManager", "WorkerSpawnError"]

_LISTENING = re.compile(r"listening on (http://[\d.]+:\d+)")

#: Seconds a freshly spawned worker gets to announce its address.
_SPAWN_TIMEOUT_S = 60.0


class WorkerSpawnError(RuntimeError):
    """A worker subprocess exited before announcing its address."""


class WorkerProcess:
    """One ``repro serve`` child process with a durable data directory."""

    def __init__(
        self,
        node_id: str,
        data_dir: str,
        *,
        snapshot_interval: int = 64,
        host: str = "127.0.0.1",
    ) -> None:
        self.node_id = node_id
        self.data_dir = data_dir
        self.snapshot_interval = snapshot_interval
        self.host = host
        self.proc: Optional[subprocess.Popen] = None
        self.base_url: Optional[str] = None
        self.stderr_lines: List[str] = []
        # First spawn binds an ephemeral port; restarts re-bind the same
        # one so the router's worker URL stays valid across a crash.
        self._port = 0
        self.start()

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Spawn (or respawn) the daemon and wait until it listens."""
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.proc = subprocess.Popen(
            [
                sys.executable, "-c",
                "import sys; from repro.cli import main; "
                "sys.exit(main(sys.argv[1:]))",
                "serve", "--host", self.host, "--port", str(self._port),
                "--data-dir", self.data_dir,
                "--snapshot-interval", str(self.snapshot_interval),
            ],
            env=env,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.stderr_lines = []
        self.base_url = self._await_listening()
        self._port = int(self.base_url.rsplit(":", 1)[1])
        # Keep draining stderr so the pipe never fills and blocks the
        # worker's own logging.
        threading.Thread(
            target=self._pump, name=f"{self.node_id}-stderr", daemon=True
        ).start()

    def _await_listening(self) -> str:
        assert self.proc is not None and self.proc.stderr is not None
        deadline = time.monotonic() + _SPAWN_TIMEOUT_S
        while time.monotonic() < deadline:
            line = self.proc.stderr.readline()
            if not line:
                raise WorkerSpawnError(
                    f"worker {self.node_id} exited before listening:\n"
                    + "".join(self.stderr_lines)
                )
            self.stderr_lines.append(line)
            match = _LISTENING.search(line)
            if match:
                return match.group(1)
        raise WorkerSpawnError(
            f"worker {self.node_id} never announced a listening address"
        )

    def _pump(self) -> None:
        proc = self.proc
        if proc is None or proc.stderr is None:  # pragma: no cover
            return
        for line in proc.stderr:
            self.stderr_lines.append(line)

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid if self.proc is not None else None

    def kill9(self) -> None:
        """SIGKILL — no flush, no snapshot; recovery is WAL replay."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
            self.proc.wait(timeout=30)

    def terminate(self) -> Optional[int]:
        """SIGTERM — the graceful path: snapshot + compact, then exit."""
        if self.proc is None:
            return None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:  # pragma: no cover - stuck child
            self.proc.kill()
            return self.proc.wait(timeout=30)

    def restart(self) -> None:
        """Stop (hard) if needed and start over the same data-dir."""
        self.kill9()
        self.start()


class ClusterManager:
    """Spawn and track the worker fleet for a locally managed cluster.

    Worker ``i`` is named ``worker-<i>`` and persists under
    ``<data_root>/worker-<i>`` — the data-dir naming the CI job and the
    ops runbook (``docs/cluster.md``) rely on to address workers from a
    shell (``pkill -f 'worker-0'``).
    """

    def __init__(
        self,
        n_workers: int,
        data_root: str,
        *,
        snapshot_interval: int = 64,
        host: str = "127.0.0.1",
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"need at least one worker, got {n_workers}")
        os.makedirs(data_root, exist_ok=True)
        self.data_root = data_root
        self.workers: Dict[str, WorkerProcess] = {}
        try:
            for i in range(n_workers):
                node_id = f"worker-{i}"
                self.workers[node_id] = WorkerProcess(
                    node_id,
                    os.path.join(data_root, node_id),
                    snapshot_interval=snapshot_interval,
                    host=host,
                )
        except Exception:
            self.stop_all()
            raise

    def urls(self) -> Dict[str, str]:
        """``node_id -> base_url`` for every spawned worker."""
        return {
            node_id: w.base_url
            for node_id, w in self.workers.items()
            if w.base_url is not None
        }

    def worker(self, node_id: str) -> WorkerProcess:
        return self.workers[node_id]

    def stop_all(self, *, graceful: bool = True) -> None:
        for w in self.workers.values():
            try:
                if graceful:
                    w.terminate()
                else:
                    w.kill9()
            except Exception:  # pragma: no cover - best-effort teardown
                pass

    def __enter__(self) -> "ClusterManager":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop_all()
