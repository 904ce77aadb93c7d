"""Instance and placement serialization.

JSON round-trip for :class:`~repro.core.instance.ProblemInstance` and
:class:`~repro.core.placement.Placement`, plus Graphviz DOT export for
papers/debugging.  The JSON schema is versioned and intentionally plain
(lists of ints/floats) so instances can be produced by other tools.
"""

from __future__ import annotations

import json
import math
from typing import Optional

from ..core.errors import InvalidInstanceError
from ..core.instance import ProblemInstance, fingerprint_columns
from ..core.placement import Placement
from ..core.policies import Policy
from ..core.tree import NO_PARENT, Tree

__all__ = [
    "canonical_json",
    "instance_to_dict",
    "instance_from_dict",
    "instance_fingerprint_from_dict",
    "dump_instance",
    "load_instance",
    "placement_to_dict",
    "placement_from_dict",
    "to_dot",
]

SCHEMA_VERSION = 1


def canonical_json(data: object) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace).

    Two structurally equal payloads always encode to the same string,
    which makes the output suitable for content-addressing — the service
    hashes request keys and its durable state over it (instances key
    by their packed columns instead, see
    :func:`~repro.core.instance.instance_fingerprint`).
    """
    return json.dumps(
        data, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def instance_to_dict(instance: ProblemInstance) -> dict:
    """Plain-JSON representation of an instance."""
    t = instance.tree
    return {
        "schema": SCHEMA_VERSION,
        "name": instance.name,
        "parents": [t.parent(v) for v in range(len(t))],
        "deltas": [
            None if math.isinf(t.delta(v)) else t.delta(v) for v in range(len(t))
        ],
        "requests": [t.requests(v) for v in range(len(t))],
        "capacity": instance.capacity,
        "dmax": instance.dmax,
        "policy": str(instance.policy),
    }


def _deltas_from_wire(deltas: list) -> list:
    """Wire deltas as :class:`Tree` stores them: ``None`` (and the
    root's entry) is ``+inf``, ``-0.0`` is ``0.0``."""
    out = [math.inf if d is None else float(d) + 0.0 for d in deltas]
    if out:
        out[0] = math.inf
    return out


def instance_from_dict(data: dict) -> ProblemInstance:
    """Inverse of :func:`instance_to_dict`."""
    if data.get("schema") != SCHEMA_VERSION:
        raise InvalidInstanceError(
            f"unsupported schema version {data.get('schema')!r}"
        )
    tree = Tree(data["parents"], _deltas_from_wire(data["deltas"]), data["requests"])
    return ProblemInstance(
        tree,
        int(data["capacity"]),
        data["dmax"],
        Policy(data["policy"]),
        name=data.get("name", ""),
    )


def instance_fingerprint_from_dict(data: dict) -> str:
    """``instance_fingerprint(instance_from_dict(data))`` without
    building the instance: the cluster router keys request bodies with
    it.  Nothing is validated; a body whose columns do not pack raises
    ``KeyError``, ``TypeError``, ``ValueError`` or ``OverflowError``.
    """
    return fingerprint_columns(
        data["parents"],
        _deltas_from_wire(data["deltas"]),
        data["requests"],
        data["capacity"],
        data["dmax"],
        data["policy"],
    )


def dump_instance(instance: ProblemInstance, path: str) -> None:
    """Write the instance to a JSON file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(instance), fh, indent=2)


def load_instance(path: str) -> ProblemInstance:
    """Read an instance from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_dict(json.load(fh))


def placement_to_dict(placement: Placement) -> dict:
    """Plain-JSON representation of a placement."""
    return {
        "schema": SCHEMA_VERSION,
        "replicas": sorted(placement.replicas),
        "assignments": [
            [a.client, a.server, a.amount] for a in placement.iter_assignments()
        ],
    }


def placement_from_dict(data: dict) -> Placement:
    """Inverse of :func:`placement_to_dict`."""
    assignments = {(c, s): a for (c, s, a) in data["assignments"]}
    return Placement(data["replicas"], assignments)


def to_dot(
    instance: ProblemInstance, placement: Optional[Placement] = None
) -> str:
    """Graphviz DOT rendering of the tree (replicas doubled-circled)."""
    t = instance.tree
    replicas = placement.replicas if placement is not None else frozenset()
    lines = ["digraph replica_tree {", "  rankdir=TB;"]
    for v in range(len(t)):
        if t.is_leaf(v):
            label = f"c{v}\\nr={t.requests(v)}"
            shape = "box"
        else:
            label = f"n{v}"
            shape = "ellipse"
        peripheries = 2 if v in replicas else 1
        lines.append(
            f'  {v} [label="{label}", shape={shape}, peripheries={peripheries}];'
        )
    for v in range(1, len(t)):
        lines.append(f'  {t.parent(v)} -> {v} [label="{t.delta(v):g}"];')
    lines.append("}")
    return "\n".join(lines)
