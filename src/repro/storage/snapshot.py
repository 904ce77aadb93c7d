"""Atomic service-state snapshot files.

A snapshot is the service's materialised state (open dynamic sessions
and result-cache entries) as of one WAL sequence number ``S``,
serialised as one JSON document and written atomically — temp file,
``fsync``, :func:`os.replace`, directory ``fsync`` — so a crash at any
instant leaves either the previous snapshot or the new one, never a
torn file.  The filename carries the sequence number
(``snapshot-<seq 16 digits>.json``), so the newest snapshot is found by
name alone and recovery can check the snapshot/log sequence relationship
before trusting either.

After a snapshot at ``S`` lands, the WAL is compacted: every frame with
``seq <= S`` is redundant (its effect is inside the snapshot) and is
dropped.  Recovery is then ``load(snapshot) + replay(frames > S)``.

Older snapshots are pruned after a successful write; a crash between
write and prune leaves extras, which recovery ignores (newest wins) and
the next successful snapshot removes.
"""

from __future__ import annotations

import json
import os
import re
from typing import List, Optional, Tuple

from ..instances.io import canonical_json
from .fsutil import atomic_write_bytes
from .wal import RecoveryError

__all__ = [
    "SNAPSHOT_SCHEMA_VERSION",
    "snapshot_path",
    "write_snapshot",
    "load_latest_snapshot",
    "list_snapshots",
    "clean_temp_files",
]

SNAPSHOT_SCHEMA_VERSION = 1

_SNAPSHOT_NAME = re.compile(r"^snapshot-(\d{16})\.json$")


def snapshot_path(data_dir: str, seq: int) -> str:
    return os.path.join(data_dir, f"snapshot-{seq:016d}.json")


def list_snapshots(data_dir: str) -> List[Tuple[int, str]]:
    """``(seq, path)`` of every snapshot file, newest first."""
    out: List[Tuple[int, str]] = []
    try:
        names = os.listdir(data_dir)
    except FileNotFoundError:
        return out
    for name in names:
        m = _SNAPSHOT_NAME.match(name)
        if m is not None:
            out.append((int(m.group(1)), os.path.join(data_dir, name)))
    out.sort(reverse=True)
    return out


def write_snapshot(
    data_dir: str, seq: int, state: dict, *, fsync: bool = True
) -> str:
    """Atomically persist ``state`` as the snapshot for sequence ``seq``.

    The file is JSON with sorted keys and no whitespace;
    :class:`~repro.instances.io.RawJSON` values in ``state`` (stored
    encodings) are written verbatim.  Prunes every older snapshot after
    the new one is durable; returns the new snapshot's path.
    """
    payload = canonical_json(
        {"schema": SNAPSHOT_SCHEMA_VERSION, "seq": int(seq), "state": state},
        allow_nan=True,
    ).encode("utf-8")
    path = snapshot_path(data_dir, seq)
    atomic_write_bytes(path, payload, fsync=fsync)
    for old_seq, old_path in list_snapshots(data_dir):
        if old_path != path and old_seq <= seq:
            try:
                os.remove(old_path)
            except OSError:  # pragma: no cover - already gone
                pass
    return path


def load_latest_snapshot(data_dir: str) -> Optional[Tuple[int, dict]]:
    """``(seq, state)`` of the newest snapshot, or ``None`` when absent.

    Raises
    ------
    RecoveryError
        If the newest snapshot file cannot be parsed or its embedded
        sequence number disagrees with its filename.  Snapshots are
        written atomically, so a damaged one is real corruption, not
        crash residue — recovery must not silently fall back to an
        older state.
    """
    snaps = list_snapshots(data_dir)
    if not snaps:
        return None
    seq, path = snaps[0]
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise RecoveryError(f"{path}: unreadable snapshot: {exc}") from None
    if not isinstance(data, dict) or data.get("schema") != SNAPSHOT_SCHEMA_VERSION:
        raise RecoveryError(
            f"{path}: unsupported snapshot schema "
            f"{data.get('schema') if isinstance(data, dict) else type(data).__name__!r}"
        )
    if int(data.get("seq", -1)) != seq:
        raise RecoveryError(
            f"{path}: embedded seq {data.get('seq')!r} disagrees with filename"
        )
    state = data.get("state")
    if not isinstance(state, dict):
        raise RecoveryError(f"{path}: snapshot state is not an object")
    return seq, state


def clean_temp_files(data_dir: str) -> int:
    """Remove write-temporaries a crash may have stranded; returns count."""
    removed = 0
    try:
        names = os.listdir(data_dir)
    except FileNotFoundError:
        return 0
    for name in names:
        if ".tmp." in name:
            try:
                os.remove(os.path.join(data_dir, name))
                removed += 1
            except OSError:  # pragma: no cover - racing cleanup
                pass
    return removed
