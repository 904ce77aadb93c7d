"""Content-addressed keys for solve requests.

The instance key is :func:`repro.core.instance.instance_fingerprint`
(blake2b-256 over the packed instance columns), re-exported here under
its service name.  It depends only on *content*: two instances that
compare equal fingerprint identically regardless of how they were
built or what ``name`` label they carry.  Request keys additionally mix
in everything that can change the answer (solver choice, budget,
tenant), and are the keys of the service result cache.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from ..core.instance import ProblemInstance, instance_fingerprint
from ..instances.io import canonical_json

__all__ = [
    "instance_fingerprint",
    "request_fingerprint",
    "combine_fingerprint",
]


def request_fingerprint(
    instance: ProblemInstance,
    solver: Optional[str] = None,
    budget: Optional[int] = None,
    tenant: Optional[str] = None,
) -> str:
    """Cache key for one solve call.

    Mixes the instance fingerprint with the solver name (``None`` means
    auto-selection, which is deterministic for a given registry, so it
    keys as its own slot), the budget, and the tenant namespace.
    ``include_assignments`` and ``request_id`` deliberately do not
    participate: they change the envelope, not the answer.
    """
    return combine_fingerprint(
        instance_fingerprint(instance), solver, budget, tenant
    )


def combine_fingerprint(
    instance_fp: str,
    solver: Optional[str] = None,
    budget: Optional[int] = None,
    tenant: Optional[str] = None,
) -> str:
    """:func:`request_fingerprint` from an already-computed instance fp.

    Lets the service hash each instance once per request, and key a
    dynamic session's repair under the engine's own content key.

    ``tenant`` namespaces the key for multi-tenant deployments: the
    answer for a given instance content is tenant-independent, but
    tenants must never observe each other's cache entries (a timing
    side channel would leak what another catalogue looks like), so a
    non-``None`` tenant label partitions the key space.  ``tenant=None``
    keys exactly as before the field existed — it is omitted from the
    payload — so existing caches, WAL records and snapshots stay valid.
    """
    payload = {
        "instance": instance_fp,
        "solver": solver,
        "budget": budget,
    }
    if tenant is not None:
        payload["tenant"] = str(tenant)
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
