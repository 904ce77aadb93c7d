"""Instance and placement serialization.

JSON round-trip for :class:`~repro.core.instance.ProblemInstance` and
:class:`~repro.core.placement.Placement`, plus Graphviz DOT export for
papers/debugging.  The JSON schema is versioned and intentionally plain
(lists of ints/floats) so instances can be produced by other tools.

The instance decoder keeps the last :data:`DECODED_TOPOLOGIES`
topologies it built, keyed by their packed ``parents`` and ``deltas``
columns: a body whose topology is among them decodes as a demand copy
of that tree (:meth:`~repro.core.tree.Tree.with_requests`), which
checks only the requests and derives its flat layout instead of
compiling one.  Services see many demand variants of one topology.
"""

from __future__ import annotations

import json
import math
import threading
from collections import OrderedDict
from typing import List, Optional, Sequence

from ..core.arrays import flat_tree
from ..core.errors import InvalidInstanceError
from ..core.instance import ProblemInstance, _topology_columns, fingerprint_columns
from ..core.placement import Placement
from ..core.policies import Policy
from ..core.tree import NO_PARENT, Tree

__all__ = [
    "RawJSON",
    "canonical_json",
    "instance_to_dict",
    "instance_from_dict",
    "instance_fingerprint_from_dict",
    "dump_instance",
    "load_instance",
    "placement_to_dict",
    "placement_from_dict",
    "placement_json",
    "to_dot",
]

SCHEMA_VERSION = 1

#: How many recently decoded topologies :func:`instance_from_dict`
#: keeps, each as one validated tree with its compiled flat layout.
DECODED_TOPOLOGIES = 8

_decoded: "OrderedDict[bytes, Tree]" = OrderedDict()
# The daemon decodes on its handler threads.
_decoded_lock = threading.Lock()


class RawJSON:
    """A value already encoded as canonical JSON.

    :func:`canonical_json` writes ``text`` verbatim where the value
    sits, so a large encoded subtree (a cached placement) is joined into
    each document that carries it instead of re-encoded.
    """

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


class _Splice(Exception):
    """Raised inside the :mod:`json` encoder when it meets a :class:`RawJSON`."""


def _refuse(value: object) -> object:
    if isinstance(value, RawJSON):
        raise _Splice
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


_ENCODERS = {
    allow_nan: json.JSONEncoder(
        sort_keys=True, separators=(",", ":"), allow_nan=allow_nan, default=_refuse
    )
    for allow_nan in (False, True)
}


def canonical_json(data: object, *, allow_nan: bool = False) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace).

    Two structurally equal payloads always encode to the same string,
    which makes the output suitable for content-addressing — the service
    hashes request keys and its durable state over it (instances key
    by their packed columns instead, see
    :func:`~repro.core.instance.instance_fingerprint`).

    A :class:`RawJSON` value is written verbatim, so the output equals
    the encoding of the same value with its text decoded in place.  A
    container holding none is encoded in one call of the :mod:`json`
    encoder; one that does is walked, and only its objects need string
    keys.  ``allow_nan=True`` writes ``NaN``/``Infinity`` as
    :func:`json.dumps` does instead of raising.
    """
    out: List[str] = []
    _splice(data, out, _ENCODERS[allow_nan])
    return "".join(out)


def _splice(value: object, out: List[str], encoder: json.JSONEncoder) -> None:
    if isinstance(value, RawJSON):
        out.append(value.text)
        return
    try:
        out.append(encoder.encode(value))
        return
    except _Splice:
        pass
    if isinstance(value, dict):
        out.append("{")
        for i, key in enumerate(sorted(value)):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            if i:
                out.append(",")
            out.append(encoder.encode(key) + ":")
            _splice(value[key], out, encoder)
        out.append("}")
    else:  # a list or tuple: nothing else reaches the default hook
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(",")
            _splice(item, out, encoder)
        out.append("]")


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
    tree = _decode_tree(
        data["parents"], _deltas_from_wire(data["deltas"]), data["requests"]
    )
    return ProblemInstance(
        tree,
        int(data["capacity"]),
        data["dmax"],
        Policy(data["policy"]),
        name=data.get("name", ""),
    )


def _decode_tree(
    parents: Sequence[int], deltas: List[float], requests: Sequence[int]
) -> Tree:
    """``Tree(parents, deltas, requests)`` for wire columns, ``deltas``
    normalised as :class:`Tree` stores them.

    Equal packed ``parents`` and ``deltas`` columns mean an equal
    topology, so a body whose columns pack like a recently decoded
    tree's is a demand copy of that tree.  It raises what the
    constructor would: a known topology is valid, so what can fail is
    the request column, converted whole with ``int`` and then checked
    entry by entry in node order (the entries equal to the known
    tree's passed those checks already).  Any other body is built by
    the constructor, and a tree it accepts is kept, its layout
    compiled, and its packed columns left on its
    :class:`~repro.core.tree.Topology` for the content key.
    """
    try:
        key = _topology_columns(parents, deltas)
        keyed = len(parents) == len(deltas) == len(requests)
    except (TypeError, ValueError, OverflowError):
        keyed = False
    if not keyed:
        # Columns that do not pack, or of unequal length (whose bytes
        # could match another topology's): the constructor decides.
        return Tree(parents, deltas, requests)
    with _decoded_lock:
        known = _decoded.get(key)
        if known is not None:
            _decoded.move_to_end(key)
    if known is not None:
        return known.with_requests([int(r) for r in requests])
    tree = Tree(parents, deltas, requests)
    tree._topology.key_columns = key
    flat_tree(tree)
    with _decoded_lock:
        _decoded[key] = tree
        _decoded.move_to_end(key)
        while len(_decoded) > DECODED_TOPOLOGIES:
            _decoded.popitem(last=False)
    return tree


def instance_fingerprint_from_dict(data: dict) -> str:
    """``instance_fingerprint(instance_from_dict(data))`` without
    building the instance: the cluster router and the service's wire
    solve path key request bodies with it.

    Only the columns are checked, not the tree: a body the decoder
    rejects for its topology or values keys apart from every valid
    instance, so it can never be answered as one.  Three things would
    pack like a valid instance and raise ``ValueError`` here, as the
    decoder rejects them: an instance schema other than 1, columns of
    unequal length (a short ``deltas`` and a long ``requests`` would
    otherwise pack into the bytes of a valid instance) and a string
    ``dmax``.  A body whose columns do not pack at all raises
    ``KeyError``, ``TypeError``, ``ValueError`` or ``OverflowError``.
    """
    if not isinstance(data, dict) or data.get("schema") != SCHEMA_VERSION:
        raise ValueError("unsupported instance schema")
    parents, deltas, requests = data["parents"], data["deltas"], data["requests"]
    if not len(parents) == len(deltas) == len(requests):
        raise ValueError("parents, deltas and requests must have the same length")
    dmax = data["dmax"]
    if isinstance(dmax, str):
        raise ValueError("dmax must be a number or null")
    return fingerprint_columns(
        parents,
        _deltas_from_wire(deltas),
        requests,
        data["capacity"],
        dmax,
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
    """Plain-JSON representation of a placement: the sorted replicas,
    and ``[client, server, amount]`` per assignment, sorted by
    ``(client, server)``."""
    amounts = placement._assignments
    return {
        "schema": SCHEMA_VERSION,
        "replicas": sorted(placement.replicas),
        "assignments": [[c, s, amounts[c, s]] for c, s in sorted(amounts)],
    }


def placement_from_dict(data: dict) -> Placement:
    """Inverse of :func:`placement_to_dict`."""
    assignments = {(c, s): a for (c, s, a) in data["assignments"]}
    return Placement(data["replicas"], assignments)


def placement_json(placement: Placement) -> str:
    """``canonical_json(placement_to_dict(placement))``, computed once
    per placement: the immutable placement keeps it, the way it keeps
    its hash.  Two threads that race to fill it compute equal text."""
    text = placement._wire
    if text is None:
        text = placement._wire = canonical_json(placement_to_dict(placement))
    return text


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
