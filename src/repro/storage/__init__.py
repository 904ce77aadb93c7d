"""Durable, crash-safe persistence for the service layer.

The storage package is the operational-durability subsystem beneath
``repro serve``: everything the long-lived daemon holds in memory —
dynamic re-placement sessions and the content-addressed result cache —
is write-ahead logged to disk *before* being applied, periodically
folded into an atomic snapshot, and replayed on startup, so a restarted
(or ``kill -9``'d) daemon resumes exactly where the old one stopped.

Modules, bottom up::

    fsutil     fsync/atomic-rename/durable-append primitives
    wal        CRC-framed, length-prefixed append-only log
    records    typed log records for the service's mutations
    snapshot   atomic snapshot files, newest-wins discovery
    store      StateStore: WAL + snapshot + compaction + recovery

The correctness contract — *recover(state) equals the never-killed
in-memory state, for any crash point including mid-record torn writes*
— is property-tested in ``tests/test_service_persistence.py`` with
:meth:`~repro.service.PlacementService.state_fingerprint` as the
equality oracle.  See
``docs/durability.md`` for the record format, the snapshot/compaction
lifecycle and the ops runbook.
"""

from .fsutil import atomic_write_bytes, durable_append_line, fsync_dir
from .records import (
    CachePut,
    LogRecord,
    SessionClose,
    SessionEvents,
    SessionStart,
    decode_record,
    encode_record,
)
from .snapshot import (
    SNAPSHOT_SCHEMA_VERSION,
    list_snapshots,
    load_latest_snapshot,
    snapshot_path,
    write_snapshot,
)
from .store import DurabilityStats, RecoveredState, StateStore
from .wal import MAX_RECORD_BYTES, RecoveryError, WalScan, WriteAheadLog, scan_wal

__all__ = [
    "StateStore",
    "DurabilityStats",
    "RecoveredState",
    "RecoveryError",
    "WriteAheadLog",
    "WalScan",
    "scan_wal",
    "MAX_RECORD_BYTES",
    "CachePut",
    "SessionStart",
    "SessionEvents",
    "SessionClose",
    "LogRecord",
    "encode_record",
    "decode_record",
    "SNAPSHOT_SCHEMA_VERSION",
    "snapshot_path",
    "write_snapshot",
    "load_latest_snapshot",
    "list_snapshots",
    "fsync_dir",
    "atomic_write_bytes",
    "durable_append_line",
]
