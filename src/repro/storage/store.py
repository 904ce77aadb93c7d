"""The :class:`StateStore` — durable, crash-safe service state.

One ``StateStore`` owns one data directory::

    <data_dir>/
        wal.log                    append-only record log (repro.storage.wal)
        snapshot-<seq 16d>.json    newest materialised state (atomic rename)

and implements the classic WAL + snapshot/compaction discipline:

* **log before apply** — the service appends a typed record
  (:mod:`repro.storage.records`) and only then mutates memory; the
  append fsyncs, so an acknowledged mutation survives ``kill -9``;
* **applied watermark** — :meth:`note_applied` tracks the highest
  sequence number ``W`` such that *every* record ``<= W`` has been
  applied in memory; snapshots are only ever taken at such a ``W``,
  so a snapshot never claims a record whose effect it is missing;
* **snapshot + compact** — every ``snapshot_interval`` applied records
  (or on demand via :meth:`snapshot_now`, e.g. at graceful shutdown),
  the service's state is written atomically and the WAL is truncated to
  frames ``> W``;
* **recover** — :meth:`recover` loads the newest snapshot, scans the
  log tail tolerating a torn final record, and hands both to the
  caller for replay.  Structural damage raises
  :class:`~repro.storage.wal.RecoveryError`; a torn tail is truncated
  away so future appends start from a clean end of file.

All methods are thread-safe.  The store knows nothing about the service
— state capture is a callback returning a JSON-able dict — so it is
reusable for any component with loggable mutations.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Set, Tuple

from .records import LogRecord, decode_record, encode_record
from .snapshot import (
    clean_temp_files,
    load_latest_snapshot,
    write_snapshot,
)
from .wal import RecoveryError, WriteAheadLog

__all__ = ["DurabilityStats", "RecoveredState", "StateStore"]

WAL_FILENAME = "wal.log"


@dataclass(frozen=True)
class DurabilityStats:
    """Point-in-time durability counters for health checks and reports."""

    data_dir: str
    last_seq: int = 0
    last_snapshot_seq: int = 0
    wal_bytes: int = 0
    records_appended: int = 0
    records_replayed: int = 0
    records_skipped: int = 0
    snapshots_written: int = 0
    recovery_s: float = 0.0
    torn_tail_recovered: bool = False

    def to_wire(self) -> dict:
        return {
            "data_dir": self.data_dir,
            "last_seq": self.last_seq,
            "last_snapshot_seq": self.last_snapshot_seq,
            "wal_bytes": self.wal_bytes,
            "records_appended": self.records_appended,
            "records_replayed": self.records_replayed,
            "records_skipped": self.records_skipped,
            "snapshots_written": self.snapshots_written,
            "recovery_s": self.recovery_s,
            "torn_tail_recovered": self.torn_tail_recovered,
        }


@dataclass
class RecoveredState:
    """What :meth:`StateStore.recover` hands back for replay."""

    snapshot: Optional[dict] = None
    snapshot_seq: int = 0
    records: List[Tuple[int, LogRecord]] = field(default_factory=list)
    torn_tail: bool = False


class StateStore:
    """WAL + snapshot persistence for one data directory.

    Parameters
    ----------
    data_dir:
        Created if missing.  One store (and one service process) per
        directory; concurrent writers are not supported.
    snapshot_interval:
        Auto-snapshot (and compact) after this many applied records
        since the last snapshot; ``0`` disables automatic snapshots
        (explicit :meth:`snapshot_now` still works).
    fsync:
        ``False`` drops the per-operation ``fsync`` calls — only for
        tests that simulate crashes at the file level.
    """

    #: Log filename inside ``data_dir`` (exposed for offline tooling).
    WAL_FILENAME = WAL_FILENAME

    def __init__(
        self,
        data_dir: str,
        *,
        snapshot_interval: int = 256,
        fsync: bool = True,
    ) -> None:
        self.data_dir = str(data_dir)
        self.snapshot_interval = int(snapshot_interval)
        self._fsync = fsync
        self._wal = WriteAheadLog(
            os.path.join(self.data_dir, WAL_FILENAME), fsync=fsync
        )
        self._lock = threading.Lock()
        self._recovered = False
        self._next_seq = 1
        self._watermark = 0
        self._applied: Set[int] = set()
        self._last_snapshot_seq = 0
        self._snapshotting = False
        # lifetime counters
        self._records_appended = 0
        self._records_replayed = 0
        self._records_skipped = 0
        self._snapshots_written = 0
        self._recovery_s = 0.0
        self._torn_tail_recovered = False

    # -- recovery ------------------------------------------------------
    def recover(self) -> RecoveredState:
        """Load snapshot + intact log tail; prepare the store for appends.

        Idempotent per store instance (second call raises).  Returns the
        newest snapshot state (if any) plus every decoded record newer
        than it, in sequence order.  The caller replays them without
        calling :meth:`note_applied`: the store treats every recovered
        record as applied.

        Raises
        ------
        RecoveryError
            Structural damage: corrupt snapshot, CRC mismatch mid-log,
            duplicate/regressing sequence numbers, a gap between the
            snapshot's sequence number and the log's first record, or a
            log that starts past 1 with no snapshot covering the gap.
        """
        t0 = time.perf_counter()
        with self._lock:
            if self._recovered:
                raise RuntimeError("StateStore.recover() called twice")
            os.makedirs(self.data_dir, exist_ok=True)
            clean_temp_files(self.data_dir)

            snap = load_latest_snapshot(self.data_dir)
            snap_seq, snap_state = (snap if snap is not None else (0, None))

            scan = self._wal.scan()
            if scan.torn_tail:
                self._torn_tail_recovered = True
                scan = self._wal.truncate_to_valid(scan)

            out = RecoveredState(
                snapshot=snap_state,
                snapshot_seq=snap_seq,
                torn_tail=self._torn_tail_recovered,
            )
            prev = snap_seq
            for seq, payload in scan.records:
                if seq <= snap_seq:
                    # The snapshot is newer than (part of) the log: a
                    # crash between snapshot write and WAL compaction
                    # left stale frames behind.  Their effects are in
                    # the snapshot; skip them, never replay them twice.
                    self._records_skipped += 1
                    continue
                if prev and seq != prev + 1:
                    raise RecoveryError(
                        f"{self._wal.path}: record {seq} follows {prev} — "
                        "records covering the gap are missing"
                    )
                if not prev and seq != 1:
                    raise RecoveryError(
                        f"{self._wal.path}: log starts at seq {seq} with no "
                        "snapshot covering earlier records"
                    )
                out.records.append((seq, decode_record(payload)))
                prev = seq

            last = max(snap_seq, scan.last_seq)
            self._next_seq = last + 1
            self._watermark = last
            self._last_snapshot_seq = snap_seq
            self._records_replayed = len(out.records)
            self._recovered = True
            self._recovery_s = time.perf_counter() - t0
            return out

    # -- the write path ------------------------------------------------
    def append(self, record: LogRecord) -> int:
        """Durably log one record; returns its sequence number.

        Must be called *before* the mutation it describes is applied;
        pair with :meth:`note_applied` afterwards.
        """
        payload = encode_record(record)
        with self._lock:
            if not self._recovered:
                raise RuntimeError(
                    "StateStore.append() before recover() — always recover "
                    "first, even on a fresh data directory"
                )
            seq = self._next_seq
            self._next_seq += 1
            self._wal.append(seq, payload)
            self._records_appended += 1
        return seq

    def note_applied(
        self, seq: int, state_fn: Optional[Callable[[], dict]] = None
    ) -> None:
        """Mark record ``seq`` as applied in memory.

        Advances the contiguous applied watermark and, when
        ``snapshot_interval`` records have accumulated past the last
        snapshot and ``state_fn`` is given, takes an automatic snapshot.
        """
        do_snapshot = False
        with self._lock:
            self._applied.add(seq)
            while self._watermark + 1 in self._applied:
                self._watermark += 1
                self._applied.discard(self._watermark)
            if (
                state_fn is not None
                and self.snapshot_interval > 0
                and not self._snapshotting
                and self._watermark - self._last_snapshot_seq
                >= self.snapshot_interval
            ):
                self._snapshotting = True
                do_snapshot = True
        if do_snapshot:
            try:
                self.snapshot_now(state_fn)
            finally:
                with self._lock:
                    self._snapshotting = False

    def snapshot_now(self, state_fn: Callable[[], dict]) -> int:
        """Snapshot at the current applied watermark and compact the WAL.

        The watermark is pinned *before* ``state_fn`` runs: every record
        at or below it is already applied, so the captured state can
        only contain *more* than the snapshot claims — and every record
        kind is an absolute (idempotent) mutation, so replaying a
        not-yet-compacted frame over a slightly-ahead snapshot converges
        to the same state.  Returns the snapshot's sequence number.
        """
        with self._lock:
            watermark = self._watermark
        state = state_fn()
        write_snapshot(self.data_dir, watermark, state, fsync=self._fsync)
        self._wal.compact(watermark)
        with self._lock:
            self._last_snapshot_seq = watermark
            self._snapshots_written += 1
        return watermark

    # -- introspection -------------------------------------------------
    def status(self) -> DurabilityStats:
        with self._lock:
            return DurabilityStats(
                data_dir=self.data_dir,
                last_seq=self._next_seq - 1,
                last_snapshot_seq=self._last_snapshot_seq,
                wal_bytes=self._wal.size_bytes(),
                records_appended=self._records_appended,
                records_replayed=self._records_replayed,
                records_skipped=self._records_skipped,
                snapshots_written=self._snapshots_written,
                recovery_s=self._recovery_s,
                torn_tail_recovered=self._torn_tail_recovered,
            )

    def close(self) -> None:
        """Release file handles (no implicit snapshot — crash-equivalent)."""
        self._wal.close()

    def __enter__(self) -> "StateStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
