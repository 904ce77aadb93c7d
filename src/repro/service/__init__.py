"""The placement service layer — the public front door for solving.

Architecture (bottom up)::

    core        model, checker, bounds
    algorithms  the paper's solvers (self-registering)
    runner      solver registry + uniform solve + batch sweeps
    service     <- you are here: typed requests/responses, caching,
                   auto-selection, concurrency, HTTP daemon
    cli         thin argparse shims over the service

Use :class:`PlacementService` from libraries and tools::

    from repro.service import PlacementService, SolveRequest

    svc = PlacementService(cache_size=256)
    resp = svc.solve(SolveRequest(instance=inst))      # auto-selection
    resp = svc.solve_instance(inst, "single-gen")      # explicit solver
    assert resp.ok and resp.placement is not None

or over the network via ``repro serve`` (see
:mod:`repro.service.daemon` for the ``/v1/*`` endpoint contract).
"""

from .cache import CacheStats, ResultCache
from .facade import PlacementService, ServiceStats, UnknownSessionError
from .fingerprint import (
    combine_fingerprint,
    instance_fingerprint,
    request_fingerprint,
)
from .schema import (
    WIRE_SCHEMA_VERSION,
    Diagnostics,
    ErrorCode,
    ErrorInfo,
    SolveRequest,
    SolveResponse,
    WireFormatError,
)
from .selection import (
    AUTO_CHAIN,
    NoApplicableSolverError,
    select_solver,
    selection_candidates,
)
from .daemon import PlacementServer, make_server, serve

__all__ = [
    "PlacementService",
    "ServiceStats",
    "SolveRequest",
    "SolveResponse",
    "Diagnostics",
    "ErrorInfo",
    "ErrorCode",
    "WireFormatError",
    "WIRE_SCHEMA_VERSION",
    "ResultCache",
    "CacheStats",
    "instance_fingerprint",
    "request_fingerprint",
    "combine_fingerprint",
    "UnknownSessionError",
    "AUTO_CHAIN",
    "NoApplicableSolverError",
    "select_solver",
    "selection_candidates",
    "PlacementServer",
    "make_server",
    "serve",
]
