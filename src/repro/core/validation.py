"""Independent placement checker.

This module verifies every model constraint of the paper's framework
(Section 2) against a :class:`~repro.core.placement.Placement`.  Each
violation is tagged with the rule it breaks:

1. **completeness** — every client's requests are fully assigned
   (``Σ_s r_{i,s} = r_i``), and only clients have assignments.
2. **policy** — under Single, ``|servers(i)| = 1`` for every client with
   requests.
3. **ancestry** — a server only processes requests of clients in its own
   subtree (servers lie on the client's root path).
4. **distance** — ``dist(i, s) ≤ dmax`` for every assignment.
5. **capacity** — ``Σ_i r_{i,s} ≤ W`` for every server.
6. **registration** — every used server belongs to the replica set
   ``R``, and replicas are valid tree nodes.

It shares no code with the solvers, so it can be used as an oracle in
tests and benchmarks.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .errors import InvalidPlacementError
from .instance import ProblemInstance
from .placement import Placement
from .policies import Policy

__all__ = [
    "check_placement",
    "placement_violations",
    "iter_violations",
    "is_valid",
]


def iter_violations(
    instance: ProblemInstance,
    placement: Placement,
    clients: Optional[Sequence[int]] = None,
) -> Iterator[Tuple[str, str]]:
    """Yield ``(rule, message)`` for every constraint violation.

    ``rule`` is one of the six names in the module docstring.  With
    ``clients=None`` every client is audited.  Given a sample of
    clients, replica ids, every assignment's keys, registration and
    capacity are still checked over the whole placement, while
    completeness, policy, ancestry and distance run for the sampled
    clients only.

    One pass over the (sorted) assignments covers the per-assignment
    constraints and accumulates the per-client totals the completeness
    and policy checks read afterwards: O(R + A + C).
    """
    tree = instance.tree
    W = instance.capacity
    dmax = instance.dmax
    sample = None if clients is None else set(clients)

    n = len(tree)
    replicas = placement.replicas
    for r in replicas:
        if not 0 <= r < n:
            yield "registration", f"replica {r} is not a node of the tree"

    # Registration + ancestry + distance, per assignment; totals and
    # per-client server sets accumulate unconditionally (completeness
    # counts every assigned unit, valid or not).
    served: Dict[int, int] = {}
    client_servers: Dict[int, Set[int]] = {}
    single = instance.policy is Policy.SINGLE
    for (c, s), amount in sorted(placement.assignments.items()):
        served[c] = served.get(c, 0) + amount
        if single:
            client_servers.setdefault(c, set()).add(s)
        if not 0 <= c < n or not tree.is_leaf(c):
            yield "completeness", f"assignment client {c} is not a leaf client"
            continue
        if not 0 <= s < n:
            yield "registration", f"assignment server {s} is not a tree node"
            continue
        if s not in replicas:
            yield "registration", (
                f"server {s} serves client {c} but is not in R"
            )
        if sample is not None and c not in sample:
            continue
        if not tree.is_ancestor(s, c):
            yield "ancestry", (
                f"server {s} is not on the root path of client "
                f"{c} (subtree constraint violated)"
            )
            continue
        if dmax is not None:
            d = tree.distance_to_ancestor(c, s)
            if d > dmax:
                yield "distance", (
                    f"client {c} served by {s} at distance "
                    f"{d} > dmax={dmax}"
                )

    # Completeness and policy, per client.
    for c in tree.clients if clients is None else clients:
        r = tree.requests(c)
        got = served.get(c, 0)
        if got != r:
            yield "completeness", (
                f"client {c} has {r} requests but {got} are assigned"
            )
        if single and r > 0:
            servers = sorted(client_servers.get(c, ()))
            if len(servers) > 1:
                yield "policy", (
                    f"Single policy violated: client {c} uses servers {servers}"
                )

    # Capacity, per server.
    for s, load in placement.loads().items():
        if load > W:
            yield "capacity", f"server {s} processes {load} > W={W} requests"


def placement_violations(
    instance: ProblemInstance,
    placement: Placement,
    clients: Optional[Sequence[int]] = None,
) -> List[str]:
    """Return a list of human-readable constraint violations (empty if valid).

    ``clients`` limits the per-client checks to a sample, as in
    :func:`iter_violations`; the default audits every client.
    """
    return [
        message
        for _rule, message in iter_violations(instance, placement, clients)
    ]


def check_placement(instance: ProblemInstance, placement: Placement) -> None:
    """Raise :class:`InvalidPlacementError` if the placement is invalid."""
    problems = placement_violations(instance, placement)
    if problems:
        preview = "; ".join(problems[:5])
        more = f" (+{len(problems) - 5} more)" if len(problems) > 5 else ""
        raise InvalidPlacementError(
            f"invalid placement for {instance.variant}: {preview}{more}"
        )


def is_valid(instance: ProblemInstance, placement: Placement) -> bool:
    """True iff the placement satisfies every constraint."""
    return not placement_violations(instance, placement)
