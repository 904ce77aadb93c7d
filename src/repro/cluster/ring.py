"""Consistent-hash ring: stable key -> worker routing with minimal remap.

The cluster shards requests by *content fingerprint* (the blake2b
instance key of :func:`repro.core.instance.instance_fingerprint`), so
the routing key space is already uniform hex strings.  The ring maps
that space onto workers with the classic consistent-hashing
construction:

* every worker owns ``vnodes`` points on a 64-bit circle, each point
  the blake2b digest of ``"<node>#<replica>"``;
* a key routes to the owner of the first point clockwise of
  ``blake2b(key)``;
* adding or removing one worker only moves the keys in the arcs that
  worker's points own — an expected ``1/N`` fraction — while every
  other key keeps its owner (the minimal-remap property the failover
  and rebalancing logic relies on).

Everything is derived from the *names* of the members, so two ring
instances built in different processes from the same membership agree
on every routing decision — the property the router and the load
generator both depend on (and that the Hypothesis suite in
``tests/test_cluster_ring.py`` pins).
"""

from __future__ import annotations

from bisect import bisect_right
from hashlib import blake2b
from typing import Dict, Iterable, List, Tuple

__all__ = ["HashRing", "DEFAULT_VNODES", "ring_point"]

#: Virtual nodes per worker.  16 keeps a 3–8 worker ring within 2x of
#: a uniform key split (property-tested) at negligible lookup cost.
DEFAULT_VNODES = 16

_SPACE = 1 << 64


def ring_point(label: str) -> int:
    """The 64-bit ring position of ``label`` (pure function of content).

    blake2b rather than ``hash()``: Python's string hashing is salted
    per process (PYTHONHASHSEED), and routing must agree across the
    router, the workers and any offline planner.
    """
    return int.from_bytes(
        blake2b(label.encode("utf-8"), digest_size=8).digest(), "big"
    )


class HashRing:
    """A consistent-hash ring over named workers.

    Not thread-safe by itself — the router guards membership changes
    with its own lock and treats lookups on a stale ring as harmless
    (a request routed to a just-removed worker fails over normally).
    """

    def __init__(
        self, nodes: Iterable[str] = (), *, vnodes: int = DEFAULT_VNODES
    ) -> None:
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        self._nodes: List[str] = []
        # Sorted, parallel arrays of (point, owner) — rebuilt on change;
        # membership churn is rare, lookups are the hot path.
        self._points: List[int] = []
        self._owners: List[str] = []
        for node in nodes:
            self.add(node)

    # -- membership ----------------------------------------------------
    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    @property
    def nodes(self) -> Tuple[str, ...]:
        """Current members, sorted by name."""
        return tuple(sorted(self._nodes))

    def add(self, node: str) -> None:
        """Add a worker (idempotent: re-adding a member is a no-op)."""
        if node in self._nodes:
            return
        self._nodes.append(node)
        self._rebuild()

    def remove(self, node: str) -> None:
        """Remove a worker (idempotent: removing a stranger is a no-op)."""
        if node not in self._nodes:
            return
        self._nodes.remove(node)
        self._rebuild()

    def _rebuild(self) -> None:
        pairs: List[Tuple[int, str]] = []
        for node in self._nodes:
            for replica in range(self.vnodes):
                # Tie-break colliding points by owner name so iteration
                # order — and therefore routing — is deterministic.
                pairs.append((ring_point(f"{node}#{replica}"), node))
        pairs.sort()
        self._points = [p for p, _ in pairs]
        self._owners = [o for _, o in pairs]

    # -- routing -------------------------------------------------------
    def route(self, key: str) -> str:
        """The worker owning ``key`` (raises on an empty ring)."""
        if not self._nodes:
            raise LookupError("cannot route on an empty ring")
        idx = bisect_right(self._points, ring_point(key))
        if idx == len(self._points):
            idx = 0
        return self._owners[idx]

    def successors(self, key: str, limit: int = 0) -> List[str]:
        """Distinct workers in clockwise order from ``key``.

        The first element is :meth:`route`'s answer; the rest are the
        failover order — the worker that *would* own the key if every
        earlier one left the ring.  ``limit=0`` returns all members.
        """
        if not self._nodes:
            return []
        want = len(self._nodes) if limit <= 0 else min(limit, len(self._nodes))
        start = bisect_right(self._points, ring_point(key))
        out: List[str] = []
        seen = set()
        n = len(self._points)
        for off in range(n):
            owner = self._owners[(start + off) % n]
            if owner not in seen:
                seen.add(owner)
                out.append(owner)
                if len(out) == want:
                    break
        return out

    # -- observability -------------------------------------------------
    def ownership(self) -> Dict[str, float]:
        """Fraction of the hash space each worker owns (sums to 1.0).

        This is the *expected* share of uniformly distributed keys —
        the number the router publishes per worker in ``/v1/healthz``
        so imbalance is observable without sampling.
        """
        if not self._nodes:
            return {}
        shares = {node: 0 for node in self._nodes}
        n = len(self._points)
        for i, point in enumerate(self._points):
            prev = self._points[i - 1] if i else self._points[-1]
            arc = (point - prev) % _SPACE
            if n == 1 or arc == 0:
                arc = _SPACE if n == 1 else arc
            shares[self._owners[i]] += arc
        return {node: arc / _SPACE for node, arc in sorted(shares.items())}
