"""ASCII rendering of distribution trees and placements.

Terminal-friendly visualisation used by the CLI and the examples — no
plotting dependency is available offline, and for trees of the sizes the
paper discusses a text drawing is actually more legible than a graph
layout.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.instance import ProblemInstance
from ..core.placement import Placement

__all__ = ["render_tree", "render_placement_summary"]


def render_tree(
    instance: ProblemInstance, placement: Optional[Placement] = None
) -> str:
    """Indented tree drawing.

    Replica nodes are tagged ``[R]``; client lines show the demand and,
    when a placement is given, which server(s) process it.
    """
    t = instance.tree
    replicas = placement.replicas if placement is not None else frozenset()
    by_client = placement.by_client() if placement is not None else {}
    lines: List[str] = []

    # Iterative DFS carrying the drawing prefix.
    stack = [(t.root, "", True)]
    while stack:
        v, prefix, is_last = stack.pop()
        connector = "" if v == t.root else ("`-- " if is_last else "|-- ")
        tag = " [R]" if v in replicas else ""
        if t.is_leaf(v):
            served = ""
            if placement is not None and t.requests(v) > 0:
                served = " -> " + ",".join(
                    f"{s}(x{a})" for s, a in by_client.get(v, ())
                )
            body = f"c{v} r={t.requests(v)}{tag}{served}"
        else:
            body = f"n{v}{tag}"
        if v == t.root:
            lines.append(body)
            child_prefix = ""
        else:
            dist = f" ({t.delta(v):g})"
            lines.append(prefix + connector + body + dist)
            child_prefix = prefix + ("    " if is_last else "|   ")
        kids = t.children(v)
        for idx in range(len(kids) - 1, -1, -1):
            stack.append((kids[idx], child_prefix, idx == len(kids) - 1))
    return "\n".join(lines)


def render_placement_summary(
    instance: ProblemInstance, placement: Placement
) -> str:
    """One-paragraph summary: replica count, loads, utilisation."""
    loads = placement.loads()
    W = instance.capacity
    util = (
        sum(loads.values()) / (W * len(loads)) * 100 if loads else 0.0
    )
    lines = [
        f"variant        : {instance.variant}",
        f"replicas |R|   : {placement.n_replicas}",
        f"total demand   : {instance.tree.total_requests}",
        f"capacity W     : {W}",
        f"mean utilisation: {util:.1f}%",
    ]
    for s in sorted(loads):
        lines.append(f"  server {s:>4}: load {loads[s]:>6} / {W}")
    return "\n".join(lines)
