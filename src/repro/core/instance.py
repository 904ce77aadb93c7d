"""Problem-instance model.

A :class:`ProblemInstance` bundles the distribution tree with the server
capacity ``W``, the distance bound ``dmax`` (``None`` encodes the *NoD*
variants with no distance constraint), and the access policy.  It also
provides the paper's variant naming scheme (``Single-NoD-Bin`` etc.) and
cheap necessary feasibility checks.  :func:`instance_fingerprint` is
the one content key of an instance: the service's cache keys, the
cluster's routing, the dynamic engine and the durable state all use it.
"""

from __future__ import annotations

import math
import operator
import struct
import sys
from array import array
from dataclasses import dataclass, field
from hashlib import blake2b
from typing import AbstractSet, Optional, Sequence

from .errors import InvalidInstanceError
from .policies import Policy
from .tree import Tree

__all__ = ["ProblemInstance", "instance_fingerprint", "fingerprint_columns"]


@dataclass(frozen=True)
class ProblemInstance:
    """A replica-placement problem instance.

    Attributes
    ----------
    tree:
        The distribution tree (clients at leaves).
    capacity:
        Server capacity ``W`` — the number of requests a replica can
        process per time unit.
    dmax:
        Maximum client→server distance, or ``None`` for no constraint.
    policy:
        :class:`~repro.core.policies.Policy` (Single or Multiple).
    """

    tree: Tree
    capacity: int
    dmax: Optional[float] = None
    policy: Policy = Policy.SINGLE
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        # Every solver assumes an integer W, and the content key packs
        # it as one: 2.0 is W=2, but 2.5 must not share W=2's key.
        W = self.capacity
        try:
            operator.index(W)
        except TypeError:
            try:
                integral = math.isfinite(W) and float(W).is_integer()
            except (TypeError, ValueError, OverflowError):
                integral = False
            if not integral:
                raise InvalidInstanceError(
                    f"server capacity must be a finite integer, got {W!r}"
                )
        if self.capacity <= 0:
            raise InvalidInstanceError(
                f"server capacity must be positive, got {self.capacity}"
            )
        if self.dmax is not None and (
            not math.isfinite(self.dmax) or self.dmax < 0
        ):
            raise InvalidInstanceError(
                f"dmax must be a non-negative finite number or None, got {self.dmax}"
            )

    # ------------------------------------------------------------------
    @property
    def has_distance_constraint(self) -> bool:
        """True for the constrained variants, False for *NoD*."""
        return self.dmax is not None

    @property
    def is_binary(self) -> bool:
        """True iff the tree arity is at most 2 (the *Bin* variants)."""
        return self.tree.is_binary

    @property
    def variant(self) -> str:
        """The paper's name for this problem variant.

        Examples: ``Single``, ``Single-NoD``, ``Single-NoD-Bin``,
        ``Multiple-Bin``.
        """
        parts = ["Single" if self.policy is Policy.SINGLE else "Multiple"]
        if not self.has_distance_constraint:
            parts.append("NoD")
        if self.is_binary:
            parts.append("Bin")
        return "-".join(parts)

    # ------------------------------------------------------------------
    def client_fits_server(self) -> bool:
        """True iff every client demand fits one server (``r_i ≤ W``).

        This is the precondition of Theorem 6 (optimality of
        ``multiple-bin``) and a necessary condition for *any* Single
        placement to exist.
        """
        return self.tree.max_request <= self.capacity

    def trivially_infeasible(self) -> Optional[str]:
        """Cheap necessary feasibility checks.

        Returns a human-readable reason if the instance provably has no
        solution, else ``None``.  Note this is *necessary*, not
        sufficient: it never proves feasibility.
        """
        t = self.tree
        if self.policy is Policy.SINGLE and t.max_request > self.capacity:
            big = max(t.clients, key=t.requests)
            return (
                f"client {big} demands {t.requests(big)} > W={self.capacity}; "
                "under the Single policy it cannot be served"
            )
        if self.policy is Policy.MULTIPLE:
            # A client's requests can only go to ancestors within dmax; the
            # client itself is always eligible, so the available capacity
            # for client i is (number of eligible servers) * W.
            for c in t.clients:
                if t.requests(c) == 0:
                    continue
                k = len(t.eligible_servers(c, self.dmax))
                if t.requests(c) > k * self.capacity:
                    return (
                        f"client {c} demands {t.requests(c)} but only {k} "
                        f"eligible servers of capacity {self.capacity} exist "
                        "within dmax"
                    )
        return None

    # ------------------------------------------------------------------
    def with_policy(self, policy: Policy) -> "ProblemInstance":
        """Same instance under the other access policy."""
        return ProblemInstance(self.tree, self.capacity, self.dmax, policy, self.name)

    def without_distance(self) -> "ProblemInstance":
        """The *NoD* relaxation of this instance."""
        return ProblemInstance(self.tree, self.capacity, None, self.policy, self.name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        d = "NoD" if self.dmax is None else f"dmax={self.dmax}"
        return (
            f"ProblemInstance({self.variant}, n={len(self.tree)}, "
            f"W={self.capacity}, {d})"
        )


def _packed(typecode: str, values: Sequence) -> bytes:
    """``values`` as a little-endian C array (``array`` is native-order)."""
    column = array(typecode, values)
    if sys.byteorder != "little":
        column.byteswap()
    return column.tobytes()


def _int_column(tag: bytes, values: Sequence[int]) -> bytes:
    """An int64 column under ``tag``, or its decimal text under the
    upper-case tag when a value does not fit (a demand or capacity of
    ``10**20`` is a valid instance).  Either form takes integers only
    (``True`` as ``1``), so a column keys as the ints it decodes to."""
    try:
        return tag + _packed("q", values)
    except OverflowError:
        return tag.upper() + ",".join(map(str, map(operator.index, values))).encode()


def fingerprint_columns(
    parents: Sequence[int],
    deltas: Sequence[float],
    requests: Sequence[int],
    capacity: int,
    dmax: Optional[float],
    policy: object,
    failed: AbstractSet[int] = frozenset(),
) -> str:
    """Hex blake2b-256 over an instance's packed columns.

    A fixed header (``n``, ``len(failed)``, dmax with ``None`` flagged)
    precedes the capacity, parents, deltas, requests and sorted
    ``failed`` columns and the policy name.  ``deltas`` must be floats
    as :class:`Tree` stores them: ``+inf`` at the root, ``-0.0``
    folded into ``0.0``.  Numbers key by value, as
    :class:`ProblemInstance` compares them: capacity packs as an int,
    dmax as a double (``-0.0`` folded too).

    Raises
    ------
    TypeError / ValueError / OverflowError
        If a column holds something that is not a finite number.
    """
    return _digest(
        len(parents),
        _topology_columns(parents, deltas),
        requests,
        capacity,
        dmax,
        policy,
        failed,
    )


def _topology_columns(parents: Sequence[int], deltas: Sequence[float]) -> bytes:
    """The packed ``parents`` and ``deltas`` columns of the key."""
    return _int_column(b"p", parents) + b"d" + _packed("d", deltas)


def _digest(
    n: int,
    topology: bytes,
    requests: Sequence[int],
    capacity: int,
    dmax: Optional[float],
    policy: object,
    failed: AbstractSet[int],
) -> str:
    dmax_value = 0.0 if dmax is None else float(dmax) + 0.0
    h = blake2b(digest_size=32)
    h.update(struct.pack("<qq?d", n, len(failed), dmax is None, dmax_value))
    h.update(_int_column(b"w", [int(capacity)]))
    h.update(topology)
    h.update(_int_column(b"r", requests))
    h.update(_int_column(b"f", sorted(failed)))
    h.update(str(policy).encode())
    return h.hexdigest()


def instance_fingerprint(
    instance: ProblemInstance, failed: AbstractSet[int] = frozenset()
) -> str:
    """The content key of ``instance`` with the ``failed`` hosts down.

    Equal instances (``==``, so ``name`` excluded) key the same; with
    no failed host this is the key of the instance alone.  The packed
    topology columns are kept on the tree's shared
    :class:`~repro.core.tree.Topology`, so a demand copy packs only its
    requests: at 10k nodes a key takes about 0.8 ms, against 1.9 ms for
    the first key of a topology.
    """
    tree = instance.tree
    shared = tree._topology
    topology = shared.key_columns
    if topology is None:
        topology = shared.key_columns = _topology_columns(
            tree._parents, tree._deltas
        )
    return _digest(
        len(tree),
        topology,
        tree._requests,
        instance.capacity,
        instance.dmax,
        instance.policy,
        failed,
    )
