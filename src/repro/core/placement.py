"""Solution model: replica sets and request assignments.

A :class:`Placement` is the full output of a solver: the replica set
``R`` plus, for every client, how many of its requests each server
processes (``r_{i,s}`` in the paper).  Keeping explicit assignments —
rather than just the replica set — lets the independent checker verify
capacity, distance and policy constraints without trusting the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Tuple

from .errors import InvalidPlacementError

__all__ = ["Placement", "Assignment"]


@dataclass(frozen=True)
class Assignment:
    """``amount`` requests of ``client`` are served by ``server``."""

    client: int
    server: int
    amount: int


class Placement:
    """An (immutable) replica placement with explicit assignments.

    Parameters
    ----------
    replicas:
        The replica set ``R``.
    assignments:
        Mapping ``(client, server) -> amount``.  Amounts must be positive
        integers; the checker enforces everything else.
    """

    # ``_wire`` memoizes the canonical JSON encoding, which
    # :func:`repro.instances.io.placement_json` fills on first use.
    __slots__ = ("_replicas", "_assignments", "_hash", "_wire")

    def __init__(
        self,
        replicas: Iterable[int],
        assignments: Mapping[Tuple[int, int], int],
    ) -> None:
        amap: Dict[Tuple[int, int], int] = {}
        for (client, server), amount in assignments.items():
            amount = int(amount)
            if amount <= 0:
                raise InvalidPlacementError(
                    f"assignment ({client}->{server}) has non-positive "
                    f"amount {amount}"
                )
            amap[(int(client), int(server))] = amount
        self._replicas: FrozenSet[int] = frozenset(int(r) for r in replicas)
        self._assignments: Dict[Tuple[int, int], int] = amap
        self._hash: int | None = None
        self._wire: str | None = None

    @classmethod
    def _trusted(
        cls, replicas: FrozenSet[int], assignments: Dict[Tuple[int, int], int]
    ) -> "Placement":
        """A placement over maps a solver built from int node ids and
        positive int amounts, taken as they are, without the per-entry
        checks of the constructor.  The caller hands over maps it no
        longer mutates (copies of its own state).
        """
        placement = cls.__new__(cls)
        placement._replicas = replicas
        placement._assignments = assignments
        placement._hash = None
        placement._wire = None
        return placement

    # ------------------------------------------------------------------
    @property
    def replicas(self) -> FrozenSet[int]:
        """The replica set ``R``."""
        return self._replicas

    @property
    def n_replicas(self) -> int:
        """The objective value ``|R|``."""
        return len(self._replicas)

    @property
    def assignments(self) -> Dict[Tuple[int, int], int]:
        """A copy of the ``(client, server) -> amount`` mapping."""
        return dict(self._assignments)

    def iter_assignments(self) -> Iterable[Assignment]:
        """Iterate over all assignments as :class:`Assignment` records."""
        for (c, s), a in sorted(self._assignments.items()):
            yield Assignment(c, s, a)

    # ------------------------------------------------------------------
    def servers_of(self, client: int) -> List[int]:
        """``servers(i)``: the servers handling at least one request of
        ``client``."""
        return sorted(s for (c, s) in self._assignments if c == client)

    def by_client(self) -> Dict[int, List[Tuple[int, int]]]:
        """Every client's ``[(server, amount), ...]``, servers ascending
        as :meth:`servers_of` lists them, from one pass over the
        assignments (a loop of :meth:`servers_of` scans them per
        client)."""
        out: Dict[int, List[Tuple[int, int]]] = {}
        for (c, s), a in self._assignments.items():
            out.setdefault(c, []).append((s, a))
        for pairs in out.values():
            pairs.sort()
        return out

    def served_amount(self, client: int) -> int:
        """Total requests of ``client`` that are assigned somewhere."""
        return sum(a for (c, _s), a in self._assignments.items() if c == client)

    def load(self, server: int) -> int:
        """Total requests processed by ``server``."""
        return sum(a for (_c, s), a in self._assignments.items() if s == server)

    def loads(self) -> Dict[int, int]:
        """Load of every replica (0 for idle replicas)."""
        out: Dict[int, int] = {r: 0 for r in self._replicas}
        for (_c, s), a in self._assignments.items():
            out[s] = out.get(s, 0) + a
        return out

    def used_servers(self) -> FrozenSet[int]:
        """Servers with at least one assignment."""
        return frozenset(s for (_c, s) in self._assignments)

    # ------------------------------------------------------------------
    def restricted_to(self, clients: Iterable[int]) -> "Placement":
        """Sub-placement covering only the given clients (for analysis)."""
        cset = set(clients)
        amap = {
            (c, s): a for (c, s), a in self._assignments.items() if c in cset
        }
        used = frozenset(s for (_c, s) in amap)
        return Placement(used, amap)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Placement):
            return NotImplemented
        return (
            self._replicas == other._replicas
            and self._assignments == other._assignments
        )

    def __hash__(self) -> int:
        # Cached: placements are immutable, and the service-layer result
        # cache hashes the same placement on every lookup.
        if self._hash is None:
            self._hash = hash(
                (self._replicas, tuple(sorted(self._assignments.items())))
            )
        return self._hash

    def __repr__(self) -> str:
        shown = sorted(self._replicas)[:8]
        ellipsis = ", ..." if self.n_replicas > 8 else ""
        served = sum(self._assignments.values())
        return (
            f"Placement(|R|={self.n_replicas}, "
            f"replicas=[{', '.join(map(str, shown))}{ellipsis}], "
            f"served={served}, assignments={len(self._assignments)})"
        )
