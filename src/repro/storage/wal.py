"""Append-only write-ahead log with CRC-framed, length-prefixed records.

File layout::

    +----------------------------- file header (12 bytes) ----+
    | magic "RPROWAL1" (8) | version u32 LE (4)               |
    +------------------------------- record frame -------------+
    | length u32 | crc32 u32 | seq u64 | payload (length bytes)|
    +----------------------------------------------------------+
    | ... more frames, strictly increasing seq ...             |

``crc32`` covers ``seq`` (8 bytes little-endian) plus the payload, so a
frame whose length field survived a crash but whose payload did not is
still detected.  Writers append one frame per committed record and
``fsync`` before reporting success — a record the caller saw committed
survives ``kill -9`` and power loss.

Reading (:func:`scan_wal`) distinguishes *torn tails* from *corruption*:

* an incomplete final frame (header or payload cut short by a crash
  mid-append), a final frame whose CRC fails, or a tail of zero bytes
  (a pre-allocated region never written) are **expected** crash residue
  — the scan stops there, reports ``torn_tail=True``, and recovery
  proceeds with every complete record;
* the same defects *mid-log* — followed by more data — mean the log was
  damaged after being written (bit rot, concurrent writers, manual
  edits) and raise a typed :class:`RecoveryError`, never a silent skip;
* non-increasing sequence numbers (duplicates, regressions) and
  sequence gaps are structural corruption and always raise.

Compaction (:meth:`WriteAheadLog.compact`) atomically rewrites the file
keeping only frames newer than a snapshot's sequence number, via
:func:`~repro.storage.fsutil.atomic_write_bytes` — a crash mid-compact
leaves the old complete log.  A handle that knows its last seq (from
its appends or its recovery :meth:`~WriteAheadLog.scan`) writes the
header-only log without reading the file when no frame survives.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..core.errors import ReproError
from .fsutil import atomic_write_bytes, fsync_dir

__all__ = ["RecoveryError", "WalScan", "WriteAheadLog", "scan_wal"]

MAGIC = b"RPROWAL1"
VERSION = 1
_FILE_HEADER = MAGIC + struct.pack("<I", VERSION)
_FRAME = struct.Struct("<IIQ")  # length, crc32, seq
#: Upper bound on one record's payload; a larger length field mid-log is
#: corruption, not a real record (service records are a few KB).
MAX_RECORD_BYTES = 64 * 1024 * 1024


class RecoveryError(ReproError):
    """The persisted state cannot be recovered without guessing.

    Raised for structural damage — CRC mismatch mid-log, duplicate or
    regressing sequence numbers, a sequence gap between snapshot and
    log, an unreadable snapshot, a foreign file where the WAL should be.
    Torn *tails* (the residue of a crash mid-append) are not errors;
    they are reported on :class:`WalScan` and recovery continues.
    """


def _crc(seq: int, payload: bytes) -> int:
    return zlib.crc32(struct.pack("<Q", seq) + payload) & 0xFFFFFFFF


@dataclass
class WalScan:
    """Result of scanning a WAL file front to back."""

    records: List[Tuple[int, bytes]] = field(default_factory=list)
    torn_tail: bool = False
    #: Byte offset just past the last intact frame — the truncation
    #: point a repair would cut at.
    valid_bytes: int = len(_FILE_HEADER)

    @property
    def last_seq(self) -> int:
        return self.records[-1][0] if self.records else 0


def scan_wal(path: str) -> WalScan:
    """Parse every intact frame of the WAL at ``path``.

    Missing file ⇒ empty scan.  Torn tails are tolerated (see module
    docstring); structural corruption raises :class:`RecoveryError`.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return WalScan(valid_bytes=0)

    scan = WalScan()
    if len(data) < len(_FILE_HEADER):
        # A crash while writing the very header: nothing committed yet.
        scan.torn_tail = bool(data)
        scan.valid_bytes = 0
        return scan
    if data[: len(MAGIC)] != MAGIC:
        raise RecoveryError(
            f"{path}: not a repro write-ahead log (bad magic "
            f"{data[:len(MAGIC)]!r})"
        )
    (version,) = struct.unpack_from("<I", data, len(MAGIC))
    if version != VERSION:
        raise RecoveryError(
            f"{path}: unsupported WAL version {version} "
            f"(this build reads version {VERSION})"
        )

    off = len(_FILE_HEADER)
    size = len(data)
    prev_seq = 0
    while off < size:
        rest = data[off:]
        if not any(rest):
            # Zero-filled tail: a pre-allocated or zero-padded region
            # that never received a frame.  Crash residue, not damage.
            scan.torn_tail = True
            break
        if size - off < _FRAME.size:
            scan.torn_tail = True
            break
        length, crc, seq = _FRAME.unpack_from(data, off)
        payload_off = off + _FRAME.size
        if length > MAX_RECORD_BYTES:
            if payload_off + length > size:
                # Garbage length in a torn final header.
                scan.torn_tail = True
                break
            raise RecoveryError(
                f"{path}: frame at byte {off} declares an absurd length "
                f"{length} mid-log — the log is corrupt"
            )
        if payload_off + length > size:
            scan.torn_tail = True
            break
        payload = data[payload_off : payload_off + length]
        end = payload_off + length
        if _crc(seq, payload) != crc:
            if end == size:
                # The final frame's bytes were partially persisted.
                scan.torn_tail = True
                break
            raise RecoveryError(
                f"{path}: CRC mismatch in frame seq={seq} at byte {off} "
                f"with {size - end} bytes following — mid-log corruption"
            )
        if seq <= prev_seq:
            raise RecoveryError(
                f"{path}: sequence number {seq} at byte {off} does not "
                f"increase past {prev_seq} (duplicate or reordered record)"
            )
        if prev_seq and seq != prev_seq + 1:
            raise RecoveryError(
                f"{path}: sequence gap — record {prev_seq} is followed "
                f"by {seq}"
            )
        scan.records.append((seq, payload))
        scan.valid_bytes = end
        prev_seq = seq
        off = end
    return scan


class WriteAheadLog:
    """One append handle over the framed log file.

    Parameters
    ----------
    path:
        The log file; created (with its header) on first append if
        missing.
    fsync:
        ``False`` skips the per-append ``fsync`` — only for tests that
        simulate crashes at the file level, where the OS view is all
        that matters.
    """

    def __init__(self, path: str, *, fsync: bool = True) -> None:
        self.path = str(path)
        self._fsync = fsync
        self._fh = None
        self._lock = threading.Lock()
        # No frame in the file has a higher seq, once an append or
        # :meth:`scan` through this handle has set it.
        self._last_seq: Optional[int] = None

    # ------------------------------------------------------------------
    def _ensure_open(self):
        if self._fh is None:
            parent = os.path.dirname(os.path.abspath(self.path)) or "."
            os.makedirs(parent, exist_ok=True)
            created = not os.path.exists(self.path)
            self._fh = open(self.path, "ab")
            if created or self._fh.tell() == 0:
                self._fh.write(_FILE_HEADER)
                self._fh.flush()
                if self._fsync:
                    os.fsync(self._fh.fileno())
                    fsync_dir(parent)
        return self._fh

    def append(self, seq: int, payload: bytes) -> None:
        """Durably append one frame; returns once it is on disk."""
        frame = _FRAME.pack(len(payload), _crc(seq, payload), seq) + payload
        with self._lock:
            self._last_seq = seq
            fh = self._ensure_open()
            fh.write(frame)
            fh.flush()
            if self._fsync:
                os.fsync(fh.fileno())

    def scan(self) -> WalScan:
        """:func:`scan_wal` of this log; notes its last seq for
        :meth:`compact`."""
        with self._lock:
            scan = scan_wal(self.path)
            self._last_seq = scan.last_seq
            return scan

    def truncate_to_valid(self, scan: Optional[WalScan] = None) -> WalScan:
        """Cut a torn tail off the file so future appends start clean.

        Appending after a torn tail without truncating would bury crash
        residue mid-log, turning tolerated tail damage into a hard
        :class:`RecoveryError` on the *next* recovery.
        """
        with self._lock:
            self._close_locked()
            if scan is None:
                scan = scan_wal(self.path)
            if scan.torn_tail and os.path.exists(self.path):
                # A tail torn inside the 12-byte file header means nothing
                # was ever committed: cut to empty so the next append
                # rewrites a clean header instead of zero-extending.
                cut = scan.valid_bytes if scan.valid_bytes >= len(_FILE_HEADER) else 0
                with open(self.path, "r+b") as fh:
                    fh.truncate(cut)
                    fh.flush()
                    if self._fsync:
                        os.fsync(fh.fileno())
                scan.torn_tail = False
            return scan

    def compact(self, keep_after_seq: int) -> int:
        """Atomically drop every frame with ``seq <= keep_after_seq``.

        Returns the number of frames kept.  The log is rewritten through
        an fsynced temp file + rename, so a crash mid-compact leaves the
        previous complete log (recovery then simply skips the stale
        frames against the snapshot's sequence number).  When no frame
        this handle appended or scanned is newer than ``keep_after_seq``,
        nothing survives and the log is not read.
        """
        with self._lock:
            self._close_locked()
            if self._last_seq is not None and self._last_seq <= keep_after_seq:
                kept: List[Tuple[int, bytes]] = []
            else:
                scan = scan_wal(self.path)
                kept = [(s, p) for (s, p) in scan.records if s > keep_after_seq]
            out = bytearray(_FILE_HEADER)
            for seq, payload in kept:
                out += _FRAME.pack(len(payload), _crc(seq, payload), seq)
                out += payload
            atomic_write_bytes(self.path, bytes(out), fsync=self._fsync)
            return len(kept)

    def size_bytes(self) -> int:
        with self._lock:
            if self._fh is not None:
                self._fh.flush()
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0

    # ------------------------------------------------------------------
    def _close_locked(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def close(self) -> None:
        with self._lock:
            self._close_locked()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
