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
tests and benchmarks: it reads the instance and the placement only —
the tree, and the topology arrays of the tree's flat layout — never a
solver's state.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .arrays import flat_tree
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

    The check reads the tree's flat layout
    (:func:`~repro.core.arrays.flat_tree`, compiled on first use), and
    of it only the topology arrays ``orig_to_post``, ``subtree_begin``
    and ``first_child``: demands come from the tree, since a derived
    layout's demand columns are patched copies.  One unsorted pass over
    the assignments covers the per-assignment constraints and
    accumulates the per-client totals the completeness and policy
    checks read afterwards.  A leaf test and an ancestry test are O(1):
    ``s`` is an ancestor of ``c`` iff ``c``'s post position lies in the
    span of ``s``'s subtree.  A distance is the exact upward sum of
    :meth:`~repro.core.tree.Tree.distance_to_ancestor`, so on a
    ``dmax`` instance an assignment also costs its path length.  Only
    the violations found are sorted, by ``(client, server)``: O(R + A +
    C) without ``dmax``, plus O(V log V) for V violations.
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

    ft = flat_tree(tree)
    post = ft.orig_to_post
    begin = ft.subtree_begin
    first_child = ft.first_child

    # Registration + ancestry + distance, per assignment; totals and
    # per-client server lists accumulate unconditionally (completeness
    # counts every assigned unit, valid or not).  Findings are keyed
    # by assignment and sorted once at the end.
    found: List[Tuple[Tuple[int, int], str, str]] = []
    served: Dict[int, int] = {}
    # Under Single: each client's first server, and the servers of the
    # clients seen with more than one (keys are unique, so each repeat
    # of a client is a new server).
    first: Dict[int, int] = {}
    split: Dict[int, List[int]] = {}
    single = instance.policy is Policy.SINGLE
    for key, amount in placement._assignments.items():
        c, s = key
        served[c] = served.get(c, 0) + amount
        if single:
            s0 = first.setdefault(c, s)
            if s0 != s:
                split.setdefault(c, [s0]).append(s)
        if not 0 <= c < n or first_child[post[c]] >= 0:
            found.append((
                key, "completeness", f"assignment client {c} is not a leaf client"
            ))
            continue
        if not 0 <= s < n:
            found.append((
                key, "registration", f"assignment server {s} is not a tree node"
            ))
            continue
        if s not in replicas:
            found.append((
                key, "registration", f"server {s} serves client {c} but is not in R"
            ))
        if sample is not None and c not in sample:
            continue
        ps = post[s]
        if not begin[ps] <= post[c] <= ps:
            found.append((key, "ancestry", (
                f"server {s} is not on the root path of client "
                f"{c} (subtree constraint violated)"
            )))
            continue
        if dmax is not None:
            d = tree.distance_to_ancestor(c, s)
            if d > dmax:
                found.append((key, "distance", (
                    f"client {c} served by {s} at distance {d} > dmax={dmax}"
                )))
    found.sort(key=itemgetter(0))
    for _key, rule, message in found:
        yield rule, message

    # Completeness and policy, per client.
    requests = tree._requests
    for c in tree.clients if clients is None else clients:
        r = requests[c]
        got = served.get(c, 0)
        if got != r:
            yield "completeness", (
                f"client {c} has {r} requests but {got} are assigned"
            )
        if single and r > 0 and c in split:
            servers = sorted(split[c])
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
