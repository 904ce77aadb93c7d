"""Typed wire schema of the placement service.

The service speaks one versioned JSON dialect in both directions:
:class:`SolveRequest` in, :class:`SolveResponse` out.  Both are plain
dataclasses with ``to_wire()`` / ``from_wire()`` codecs that reuse the
instance/placement codecs from :mod:`repro.instances.io` — the service
does not invent a second encoding for instances or placements, it wraps
the existing one in an envelope carrying solver choice, diagnostics and
structured errors.

Wire envelope (version ``1``)::

    request  = {"schema": 1, "instance": {...}, "solver": str|null,
                "budget": int|null, "include_assignments": bool,
                "request_id": str|null}
    response = {"schema": 1, "request_id": str|null, "status": str,
                "solver": str|null, "n_replicas": int|null,
                "lower_bound": int|null, "placement": {...}|null,
                "diagnostics": {...}, "error": {code, message}|null}

Malformed envelopes raise :class:`WireFormatError` — a *caller* error
distinct from solver-level failures, which travel inside a well-formed
response as :class:`ErrorInfo`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, NamedTuple, Optional

from ..core.errors import ReproError
from ..core.instance import ProblemInstance
from ..core.placement import Placement
from ..instances.io import (
    RawJSON,
    canonical_json,
    instance_from_dict,
    instance_to_dict,
    placement_from_dict,
    placement_json,
    placement_to_dict,
)

__all__ = [
    "WIRE_SCHEMA_VERSION",
    "ErrorCode",
    "ErrorInfo",
    "Diagnostics",
    "SolveEnvelope",
    "SolveRequest",
    "SolveResponse",
    "WireFormatError",
    "read_solve_envelope",
]

WIRE_SCHEMA_VERSION = 1


class WireFormatError(ReproError):
    """A wire payload does not conform to the service schema."""


class ErrorCode:
    """Machine-readable error codes carried in :class:`ErrorInfo`."""

    BAD_REQUEST = "bad_request"
    UNKNOWN_SOLVER = "unknown_solver"
    NO_APPLICABLE_SOLVER = "no_applicable_solver"
    INAPPLICABLE = "inapplicable"
    INFEASIBLE = "infeasible"
    BUDGET_EXHAUSTED = "budget_exhausted"
    INVALID_PLACEMENT = "invalid_placement"
    SOLVER_ERROR = "solver_error"

    ALL = (
        BAD_REQUEST, UNKNOWN_SOLVER, NO_APPLICABLE_SOLVER, INAPPLICABLE,
        INFEASIBLE, BUDGET_EXHAUSTED, INVALID_PLACEMENT, SOLVER_ERROR,
    )


@dataclass(frozen=True)
class ErrorInfo:
    """Structured error attached to a non-``ok`` response."""

    code: str
    message: str

    def to_wire(self) -> dict:
        return {"code": self.code, "message": self.message}

    @classmethod
    def from_wire(cls, data: dict) -> "ErrorInfo":
        try:
            return cls(code=str(data["code"]), message=str(data["message"]))
        except (KeyError, TypeError) as exc:
            raise WireFormatError(f"malformed error object: {exc}") from None


@dataclass
class Diagnostics:
    """Per-request service diagnostics (returned in every response).

    Attributes
    ----------
    cache_hit:
        True when the response was served from the result cache rather
        than computed.
    fingerprint:
        Content-addressed request fingerprint (the cache key).
    selection:
        ``"explicit"`` when the request named a solver, ``"auto"`` when
        the service chose one from the fallback chain.
    selection_reason:
        Human-readable account of why this solver ran.
    solve_ms:
        Wall-clock milliseconds the solver spent computing this result;
        on a cache hit this is the original computation's figure, not 0
        (``service_ms`` reflects what *this* request cost).
    service_ms:
        End-to-end milliseconds inside the service, including cache
        lookup, selection and validation (over HTTP, from the parsed
        body on, instance decoding included).
    counters:
        Solver work counters, when the solver exposes them.
    """

    cache_hit: bool = False
    fingerprint: str = ""
    selection: str = "explicit"
    selection_reason: str = ""
    solve_ms: float = 0.0
    service_ms: float = 0.0
    counters: Dict[str, int] = field(default_factory=dict)

    def to_wire(self) -> dict:
        return asdict(self)

    @classmethod
    def from_wire(cls, data: dict) -> "Diagnostics":
        known = set(cls.__dataclass_fields__)
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclass
class SolveRequest:
    """One solve call: an instance plus how to solve it.

    ``solver=None`` asks the service to auto-select from the registry's
    applicability metadata (see :mod:`repro.service.selection` for the
    documented fallback chain); an explicit name is always honoured.

    ``tenant`` namespaces the result-cache key (multi-tenant replay:
    many catalogues share one tree but must not share cache entries).
    ``None`` — the default, and the only value older clients can send —
    keys identically to the pre-tenant wire format, so the field is
    additive: it is omitted from ``to_wire()`` when unset and tolerated
    as absent by ``from_wire()``.
    """

    instance: ProblemInstance
    solver: Optional[str] = None
    budget: Optional[int] = None
    include_assignments: bool = True
    request_id: Optional[str] = None
    tenant: Optional[str] = None

    def to_wire(self) -> dict:
        wire = {
            "schema": WIRE_SCHEMA_VERSION,
            "instance": instance_to_dict(self.instance),
            "solver": self.solver,
            "budget": self.budget,
            "include_assignments": self.include_assignments,
            "request_id": self.request_id,
        }
        if self.tenant is not None:
            wire["tenant"] = self.tenant
        return wire

    @classmethod
    def from_wire(cls, data: object) -> "SolveRequest":
        return cls(**read_solve_envelope(data, _decode_instance)._asdict())


def _decode_instance(data: object) -> ProblemInstance:
    try:
        return instance_from_dict(data)
    except Exception as exc:  # noqa: BLE001 — normalise codec failures
        raise WireFormatError(
            f"bad instance payload — {type(exc).__name__}: {exc}"
        ) from None


class SolveEnvelope(NamedTuple):
    """A solve request's fields, named as :class:`SolveRequest` names
    them (``SolveRequest(**envelope._asdict())``); the ``instance`` is
    whatever the caller's instance codec returned."""

    instance: object
    solver: Optional[str]
    budget: Optional[int]
    include_assignments: bool
    request_id: object
    tenant: Optional[str]


def read_solve_envelope(
    data: object, decode_instance: Callable[[object], object] = lambda raw: raw
) -> SolveEnvelope:
    """The checks of :meth:`SolveRequest.from_wire`, in its order.

    ``decode_instance`` runs where the instance is decoded, after the
    envelope's schema and ``instance`` presence checks and before the
    ``solver``/``budget``/``tenant`` type checks.  The default keeps
    the instance as its wire dict: the service's wire path keys that
    dict and decodes it only on a cache miss.  ``include_assignments``
    is coerced with ``bool`` and ``request_id`` passes as sent.

    Raises
    ------
    WireFormatError
        For a malformed envelope (or whatever ``decode_instance``
        raises).
    """
    if not isinstance(data, dict):
        raise WireFormatError(
            f"request must be a JSON object, got {type(data).__name__}"
        )
    schema = data.get("schema")
    if schema != WIRE_SCHEMA_VERSION:
        raise WireFormatError(
            f"unsupported wire schema {schema!r} "
            f"(this service speaks version {WIRE_SCHEMA_VERSION})"
        )
    if "instance" not in data:
        raise WireFormatError("request is missing the 'instance' field")
    instance = decode_instance(data["instance"])
    solver = data.get("solver")
    if solver is not None and not isinstance(solver, str):
        raise WireFormatError("'solver' must be a string or null")
    budget = data.get("budget")
    if budget is not None and (
        not isinstance(budget, int) or isinstance(budget, bool)
    ):
        raise WireFormatError("'budget' must be an integer or null")
    tenant = data.get("tenant")
    if tenant is not None and not isinstance(tenant, str):
        raise WireFormatError("'tenant' must be a string or null")
    return SolveEnvelope(
        instance=instance,
        solver=solver,
        budget=budget,
        include_assignments=bool(data.get("include_assignments", True)),
        request_id=data.get("request_id"),
        tenant=tenant,
    )


@dataclass
class SolveResponse:
    """The service's answer to one :class:`SolveRequest`.

    ``status`` uses the registry's :class:`~repro.runner.result.Status`
    vocabulary (``"ok"``, ``"infeasible"``, ``"inapplicable"``,
    ``"budget"``, ``"invalid"``, ``"error"``).  ``placement`` is present
    exactly when a placement was produced and the request asked for
    assignments.
    """

    status: str
    solver: Optional[str] = None
    n_replicas: Optional[int] = None
    lower_bound: Optional[int] = None
    placement: Optional[Placement] = None
    diagnostics: Diagnostics = field(default_factory=Diagnostics)
    error: Optional[ErrorInfo] = None
    request_id: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True iff a checker-valid placement is attached."""
        return self.status == "ok"

    def to_wire(self) -> dict:
        placement = self.placement
        return self._wire(
            placement_to_dict(placement) if placement is not None else None
        )

    def to_spliced_wire(self) -> dict:
        """:meth:`to_wire` with the placement as its memoized canonical
        JSON (:func:`~repro.instances.io.placement_json`): encoded with
        :func:`~repro.instances.io.canonical_json`, it gives the bytes
        ``canonical_json(self.to_wire())`` would, without walking the
        assignments again."""
        placement = self.placement
        return self._wire(
            RawJSON(placement_json(placement)) if placement is not None else None
        )

    def encode(self) -> bytes:
        """The response body: canonical JSON of :meth:`to_wire`, with the
        placement spliced in.  ``NaN`` is written as :func:`json.dumps`
        writes it (a client may send it as a ``request_id``)."""
        return canonical_json(
            self.to_spliced_wire(), allow_nan=True
        ).encode("utf-8")

    def _wire(self, placement: object) -> dict:
        return {
            "schema": WIRE_SCHEMA_VERSION,
            "request_id": self.request_id,
            "status": self.status,
            "solver": self.solver,
            "n_replicas": self.n_replicas,
            "lower_bound": self.lower_bound,
            "placement": placement,
            "diagnostics": self.diagnostics.to_wire(),
            "error": self.error.to_wire() if self.error is not None else None,
        }

    @classmethod
    def from_wire(cls, data: object) -> "SolveResponse":
        if not isinstance(data, dict):
            raise WireFormatError(
                f"response must be a JSON object, got {type(data).__name__}"
            )
        schema = data.get("schema")
        if schema != WIRE_SCHEMA_VERSION:
            raise WireFormatError(
                f"unsupported wire schema {schema!r} "
                f"(this client speaks version {WIRE_SCHEMA_VERSION})"
            )
        if "status" not in data:
            raise WireFormatError("response is missing the 'status' field")
        placement = None
        if data.get("placement") is not None:
            try:
                placement = placement_from_dict(data["placement"])
            except Exception as exc:  # noqa: BLE001 — normalise codec failures
                raise WireFormatError(
                    f"bad placement payload — {type(exc).__name__}: {exc}"
                ) from None
        error = None
        if data.get("error") is not None:
            error = ErrorInfo.from_wire(data["error"])
        return cls(
            status=str(data["status"]),
            solver=data.get("solver"),
            n_replicas=data.get("n_replicas"),
            lower_bound=data.get("lower_bound"),
            placement=placement,
            diagnostics=Diagnostics.from_wire(data.get("diagnostics") or {}),
            error=error,
            request_id=data.get("request_id"),
        )
