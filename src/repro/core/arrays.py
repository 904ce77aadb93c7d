"""Flat-array (CSR-style) tree substrate for solver hot loops.

:class:`Tree` already stores its *metadata* in arrays, but its
traversal API hands out per-node tuples and method calls — fine for
model code, costly inside solver hot loops that visit every node and
every child edge.  :class:`FlatTree` compiles a tree once into a fully
index-addressed layout:

* nodes are renumbered into **post-order positions** ``0 .. n-1`` (the
  root is ``n-1``), so "iterate children before parents" is the plain
  loop ``for p in range(n)`` with no iterator or stack;
* the topology is three contiguous int arrays — ``parent``,
  ``first_child``, ``next_sibling`` (CSR-style child chaining, original
  child order preserved) — so child iteration is integer chasing with
  no tuple allocation;
* per-node data (``delta``, ``demand``) and derived quantities
  (``depth``, ``subtree_demand``, ``subtree_begin``) are plain lists
  indexed by post position, precomputed once;
* ``subtree(v)`` is the contiguous span ``[subtree_begin[v], v]`` —
  the post-order numbering makes every subtree an index interval, which
  is what lets the DP recurrences sweep subtrees without pointer
  chasing.

Compilation is **cached on the tree**: :func:`flat_tree` compiles at
most once per :class:`Tree` object (trees are immutable, so the result
can never go stale) and returns the cached layout afterwards.  The
solvers rewritten on this substrate — ``multiple-nod-dp``,
``single-nod``, ``multiple-greedy`` and the incremental re-fold paths —
are **bit-identical** to their original object-graph formulations; the
equivalence is property-tested in ``tests/test_arrays.py`` and the
speedup is tracked by ``repro bench`` (see ``docs/performance.md``).

Derived layouts
---------------
A demand copy of a tree (:meth:`Tree.with_demands`) whose source has a
compiled layout gets one **derived** from it
(:meth:`FlatTree.with_demands`) instead of a compile: the topology
arrays are shared, ``demand`` and ``subtree_demand`` are copied and
patched along the changed clients' root paths.  A derived layout
records what it changed — ``changed`` (post positions whose demand
differs from the source's) and ``dirty`` (their root paths, ascending)
— and the ``serial`` of its source, never the source itself, so a
chain of ticks keeps no predecessor alive.  The incremental backends
take ``dirty`` as their re-fold set when the source is the layout they
last folded (:mod:`repro.dynamic.incremental`).

A dense tick dirties most of the tree; then a path-by-path patch costs
more than one whole-array pass.  :data:`DENSE_FRACTION` is the one
switch: a tick whose dirty root paths cover more than that fraction of
the nodes recomputes ``subtree_demand`` in one pass, and the backends
rebuild their placement state whole.
"""

from __future__ import annotations

import math
from itertools import count
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from .tree import NO_PARENT, Tree

__all__ = [
    "DENSE_FRACTION",
    "FlatTree",
    "flat_tree",
    "flat_cache_stats",
    "reset_flat_cache_stats",
]

#: Sentinel for "no node" in ``parent`` / ``first_child`` / ``next_sibling``.
_NONE = -1

#: Dirty fraction above which a tick takes the whole-array paths.  On
#: the 9544-node mesh (``isp_mesh(6000, capacity=300, seed=3)``) a
#: sparse tick dirties 7-50 nodes (under 1 %) and a ``diurnal+flash``
#: tick about 9340 (98 %).  Measured there, a whole apply with every stage
#: forced either way breaks even between 55 % dirty (path-local ahead
#: by 7-10 %) and 79 % (whole arrays ahead by 11-12 %), for both
#: policies; docs/simulation.md has the table.
DENSE_FRACTION = 0.65

_STATS: Dict[str, int] = {"compiles": 0, "hits": 0, "derived": 0, "nodes_compiled": 0}

#: Layout serial numbers: a derived layout names its source by serial.
_SERIALS = count()


def flat_cache_stats() -> Dict[str, int]:
    """Process-wide FlatTree compilation-cache counters.

    Returns
    -------
    dict
        ``compiles`` (trees compiled), ``hits`` (cached layouts
        returned), ``derived`` (layouts derived from a source layout by
        a demand copy) and ``nodes_compiled`` (total nodes across all
        compilations).  ``repro bench`` snapshots these to show how
        often the hot paths re-derive the layout versus reuse it.
    """
    return dict(_STATS)


def reset_flat_cache_stats() -> None:
    """Zero the cache counters (bench harness and tests only)."""
    for k in _STATS:
        _STATS[k] = 0


class FlatTree:
    """A :class:`Tree` compiled to contiguous post-order arrays.

    All arrays are indexed by **post position** ``p`` (``0 .. n-1``,
    children before parents, the root at ``n-1``); ``post_to_orig`` /
    ``orig_to_post`` translate to and from the tree's original node
    ids.  Sibling order is the tree's original child order, so
    tie-breaking-sensitive solvers see children in exactly the sequence
    ``Tree.children`` would report.

    Attributes
    ----------
    n:
        Number of nodes.
    root:
        Post position of the root (always ``n - 1``).
    post_to_orig / orig_to_post:
        Node renumbering maps (lists of ints).
    parent:
        ``parent[p]`` is the parent's post position (``-1`` at the
        root).  Post-order guarantees ``parent[p] > p``.
    first_child / next_sibling:
        CSR-style child chaining in post positions (``-1`` terminated);
        a node is a leaf iff ``first_child[p] == -1``.
    delta:
        Edge distance to the parent (``math.inf`` at the root).
    demand:
        Requests ``r_v`` (0 for internal nodes).
    depth:
        Number of proper ancestors (node-count depth, 0 at the root).
    subtree_begin:
        Start of the subtree span: ``subtree(p)`` occupies exactly the
        post positions ``subtree_begin[p] .. p``.
    subtree_demand:
        Total requests inside ``subtree(p)``.
    serial:
        Unique number of this layout.
    source:
        ``serial`` of the layout this one was derived from (``-1`` for a
        compiled layout).
    changed / dirty:
        For a derived layout, the post positions whose demand differs
        from the source's, and their root paths in ascending order
        (``None`` for a compiled layout).

    Invariants
    ----------
    ``FlatTree(tree).to_tree() == tree`` (lossless round-trip), and for
    every ``p``: ``subtree_demand[p] == sum(demand[subtree_begin[p]:p+1])``.
    """

    __slots__ = (
        "n",
        "root",
        "post_to_orig",
        "orig_to_post",
        "parent",
        "first_child",
        "next_sibling",
        "delta",
        "demand",
        "depth",
        "subtree_begin",
        "subtree_demand",
        "serial",
        "source",
        "changed",
        "dirty",
    )

    def __init__(self, tree: Tree) -> None:
        n = len(tree)
        # Reverse-preorder trick: a DFS that pops the *last*-pushed
        # child first visits "node, then children right-to-left"; its
        # reverse is a proper post-order with children left-to-right.
        visit: List[int] = [tree.root]
        out: List[int] = []
        while visit:
            v = visit.pop()
            out.append(v)
            visit.extend(tree.children(v))
        out.reverse()

        post_to_orig = out
        orig_to_post = [0] * n
        for p, v in enumerate(post_to_orig):
            orig_to_post[v] = p

        parent = [_NONE] * n
        first_child = [_NONE] * n
        next_sibling = [_NONE] * n
        delta = [0.0] * n
        demand = [0] * n
        for p, v in enumerate(post_to_orig):
            pv = tree.parent(v)
            parent[p] = orig_to_post[pv] if pv != NO_PARENT else _NONE
            delta[p] = tree.delta(v)
            demand[p] = tree.requests(v)
            kids = tree.children(v)
            if kids:
                first_child[p] = orig_to_post[kids[0]]
                for a, b in zip(kids, kids[1:]):
                    next_sibling[orig_to_post[a]] = orig_to_post[b]

        # Children come before parents, so one ascending pass folds
        # subtree sizes and demands; one descending pass folds depths.
        size = [1] * n
        subtree_demand = list(demand)
        for p in range(n - 1):
            q = parent[p]
            size[q] += size[p]
            subtree_demand[q] += subtree_demand[p]
        subtree_begin = [p - size[p] + 1 for p in range(n)]
        depth = [0] * n
        for p in range(n - 2, -1, -1):
            depth[p] = depth[parent[p]] + 1

        self.n = n
        self.root = n - 1
        self.post_to_orig = post_to_orig
        self.orig_to_post = orig_to_post
        self.parent = parent
        self.first_child = first_child
        self.next_sibling = next_sibling
        self.delta = delta
        self.demand = demand
        self.depth = depth
        self.subtree_begin = subtree_begin
        self.subtree_demand = subtree_demand
        self.serial = next(_SERIALS)
        self.source = -1
        self.changed: Optional[List[int]] = None
        self.dirty: Optional[List[int]] = None

    def with_demands(
        self, nodes: Sequence[int], requests: Sequence[int]
    ) -> "FlatTree":
        """The layout of a demand copy of this layout's tree.

        Parameters
        ----------
        nodes:
            Original ids of the clients whose demand changed.
        requests:
            The copy's whole request column, by original id.

        Returns
        -------
        FlatTree
            A layout sharing this one's topology arrays, with
            ``demand`` and ``subtree_demand`` patched along the changed
            clients' root paths — or recomputed in one pass when those
            paths cover more than :data:`DENSE_FRACTION` of the nodes.
        """
        copy = FlatTree.__new__(FlatTree)
        for name in _TOPOLOGY:
            setattr(copy, name, getattr(self, name))
        orig_to_post = self.orig_to_post
        parent = self.parent
        old = self.demand
        demand = old.copy()
        changed = []
        for v in nodes:
            p = orig_to_post[v]
            demand[p] = requests[v]
            changed.append(p)
        dirty = self.root_paths(changed)
        if len(dirty) > DENSE_FRACTION * self.n:
            subtree_demand = demand.copy()
            for p in range(self.n - 1):
                subtree_demand[parent[p]] += subtree_demand[p]
        else:
            subtree_demand = self.subtree_demand.copy()
            for p in changed:
                d = demand[p] - old[p]
                while p >= 0:
                    subtree_demand[p] += d
                    p = parent[p]
        copy.demand = demand
        copy.subtree_demand = subtree_demand
        copy.serial = next(_SERIALS)
        copy.source = self.serial
        copy.changed = changed
        copy.dirty = dirty
        _STATS["derived"] += 1
        return copy

    # ------------------------------------------------------------------
    def root_paths(self, positions: Iterable[int]) -> List[int]:
        """The union of the root paths of ``positions``, ascending.

        Each node is visited once: a walk stops at the first node an
        earlier walk reached.  Ascending post order lists children
        before parents — the order a bottom-up re-fold needs.
        """
        parent = self.parent
        seen = bytearray(self.n)
        out: List[int] = []
        for p in positions:
            while p >= 0 and not seen[p]:
                seen[p] = 1
                out.append(p)
                p = parent[p]
        out.sort()
        return out

    def children(self, p: int) -> Iterator[int]:
        """Post positions of ``p``'s children, in original child order.

        Convenience for cold paths and tests; hot loops inline the
        ``first_child`` / ``next_sibling`` chase instead.
        """
        c = self.first_child[p]
        while c != _NONE:
            yield c
            c = self.next_sibling[c]

    def is_leaf(self, p: int) -> bool:
        """True iff the node at post position ``p`` has no children."""
        return self.first_child[p] == _NONE

    def subtree_span(self, p: int) -> range:
        """The contiguous post positions of ``subtree(p)``, inclusive."""
        return range(self.subtree_begin[p], p + 1)

    # ------------------------------------------------------------------
    def to_tree(self) -> Tree:
        """Rebuild the original :class:`Tree` (numbering included).

        Returns
        -------
        Tree
            A tree equal to the one this layout was compiled from —
            the round-trip property the equivalence tests rely on.
        """
        n = self.n
        parents = [NO_PARENT] * n
        deltas = [0.0] * n
        requests = [0] * n
        for p in range(n):
            v = self.post_to_orig[p]
            q = self.parent[p]
            parents[v] = self.post_to_orig[q] if q != _NONE else NO_PARENT
            deltas[v] = self.delta[p] if p != self.root else math.inf
            requests[v] = self.demand[p]
        return Tree(parents, deltas, requests)

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FlatTree(n={self.n}, total_demand={self.subtree_demand[self.root]})"


#: The slots a derived layout shares with its source.
_TOPOLOGY = (
    "n",
    "root",
    "post_to_orig",
    "orig_to_post",
    "parent",
    "first_child",
    "next_sibling",
    "delta",
    "depth",
    "subtree_begin",
)


def flat_tree(tree: Tree) -> FlatTree:
    """The cached flat layout of ``tree``, compiling it on first use.

    Parameters
    ----------
    tree:
        Any :class:`Tree`.  Immutability makes the cache sound: the
        layout is attached to the tree object and can never go stale.
        A demand copy of a tree with a compiled layout already carries
        a derived one, so this returns it without compiling.

    Returns
    -------
    FlatTree
        The same object on every call for the same tree instance —
        callers may rely on identity for their own keying.
    """
    ft = tree._flat
    if ft is None:
        ft = FlatTree(tree)
        tree._flat = ft
        _STATS["compiles"] += 1
        _STATS["nodes_compiled"] += ft.n
    else:
        _STATS["hits"] += 1
    return ft
