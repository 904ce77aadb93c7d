"""Typed WAL records for the placement service's mutable state.

Each record is one *logical* service mutation — the unit of crash
atomicity.  A record is logged (and fsynced) before the mutation is
applied in memory, so every state the service ever exposed is
reconstructible as ``snapshot + replay(tail)``:

=====================  =============================================
record                 mutation
=====================  =============================================
:class:`CachePut`      a deterministic solve response entered the
                       result cache (``repro serve`` ``POST /v1/solve``)
:class:`SessionStart`  a dynamic re-placement session opened
:class:`SessionEvents` one event batch folded into a session — replay
                       re-derives the cache seeding the live call
                       performed, through the same code path
:class:`SessionClose`  a session dropped
=====================  =============================================

Payloads are canonical JSON (sorted keys, no whitespace) built from the
repository's existing wire codecs — instances via
:mod:`repro.instances.io`, responses via
:class:`~repro.service.schema.SolveResponse`, events via
:func:`repro.dynamic.events.event_to_wire` — so the log speaks the same
dialect as the HTTP API and stays greppable with ``python -m json.tool``
piping.  :func:`encode_record` / :func:`decode_record` are the only
codec entry points; unknown kinds raise
:class:`~repro.storage.wal.RecoveryError` (never a silent skip).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Type, Union

from ..instances.io import canonical_json
from .wal import RecoveryError

__all__ = [
    "CachePut",
    "SessionStart",
    "SessionEvents",
    "SessionClose",
    "LogRecord",
    "encode_record",
    "decode_record",
]


@dataclass(frozen=True)
class CachePut:
    """A deterministic solve response was cached under ``key``.

    ``response`` is the response's wire dict; the service passes its
    placement pre-encoded (:class:`~repro.instances.io.RawJSON`), which
    encodes to the same payload bytes.  A decoded record holds plain
    JSON.  ``instance_fp`` is the content key of the solved instance;
    the service writes it and recovery does not read it.
    """

    key: str
    instance_fp: str
    response: dict

    kind = "cache-put"

    def to_wire(self) -> dict:
        return {
            "kind": self.kind,
            "key": self.key,
            "instance_fp": self.instance_fp,
            "response": self.response,
        }

    @classmethod
    def from_wire(cls, data: dict) -> "CachePut":
        return cls(
            key=str(data["key"]),
            instance_fp=str(data["instance_fp"]),
            response=dict(data["response"]),
        )


@dataclass(frozen=True)
class SessionStart:
    """A dynamic session opened on ``instance`` with ``solver``."""

    session_id: str
    instance: dict
    solver: Optional[str] = None

    kind = "session-start"

    def to_wire(self) -> dict:
        return {
            "kind": self.kind,
            "session_id": self.session_id,
            "instance": self.instance,
            "solver": self.solver,
        }

    @classmethod
    def from_wire(cls, data: dict) -> "SessionStart":
        solver = data.get("solver")
        return cls(
            session_id=str(data["session_id"]),
            instance=dict(data["instance"]),
            solver=None if solver is None else str(solver),
        )


@dataclass(frozen=True)
class SessionEvents:
    """One change-event batch folded into session ``session_id``."""

    session_id: str
    events: List[dict] = field(default_factory=list)

    kind = "session-events"

    def to_wire(self) -> dict:
        return {
            "kind": self.kind,
            "session_id": self.session_id,
            "events": list(self.events),
        }

    @classmethod
    def from_wire(cls, data: dict) -> "SessionEvents":
        return cls(
            session_id=str(data["session_id"]),
            events=[dict(e) for e in data["events"]],
        )


@dataclass(frozen=True)
class SessionClose:
    """Session ``session_id`` was closed."""

    session_id: str

    kind = "session-close"

    def to_wire(self) -> dict:
        return {"kind": self.kind, "session_id": self.session_id}

    @classmethod
    def from_wire(cls, data: dict) -> "SessionClose":
        return cls(session_id=str(data["session_id"]))


LogRecord = Union[CachePut, SessionStart, SessionEvents, SessionClose]

_KINDS: Dict[str, Type] = {
    cls.kind: cls
    for cls in (CachePut, SessionStart, SessionEvents, SessionClose)
}


def encode_record(record: LogRecord) -> bytes:
    """Canonical-JSON payload bytes for one record (pre-encoded
    :class:`~repro.instances.io.RawJSON` values spliced in verbatim)."""
    return canonical_json(record.to_wire()).encode("utf-8")


def decode_record(payload: bytes) -> LogRecord:
    """Inverse of :func:`encode_record`.

    Raises
    ------
    RecoveryError
        For undecodable JSON, a missing/unknown ``kind`` tag, or a
        record body missing required fields — a frame whose CRC passed
        but whose content is foreign is corruption, not a torn write.
    """
    try:
        data = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RecoveryError(f"record payload is not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise RecoveryError(
            f"record payload must be a JSON object, got {type(data).__name__}"
        )
    kind = data.get("kind")
    cls = _KINDS.get(kind)
    if cls is None:
        raise RecoveryError(f"unknown record kind {kind!r}")
    try:
        return cls.from_wire(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise RecoveryError(
            f"malformed {kind!r} record: {type(exc).__name__}: {exc}"
        ) from None
