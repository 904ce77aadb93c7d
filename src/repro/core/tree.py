"""Distribution-tree substrate.

The paper's platform is a *distribution tree* ``T = C ∪ N``: internal
nodes ``N`` may host a replica of the database, leaves ``C`` are clients
issuing requests.  Each non-root node ``j`` is at distance ``δ_j`` from
its parent, and a server can only process requests of clients located in
its own subtree, at path distance at most ``dmax``.

:class:`Tree` stores the topology in flat arrays (parent index, edge
distance, request count, children adjacency) so that node metadata access
is O(1) and traversals are allocation-free index loops.  Trees are
immutable once built; use :class:`TreeBuilder` or the class-method
constructors to create them.

All traversals are iterative (explicit stacks / precomputed orders), so
arbitrarily deep trees — e.g. the caterpillar chains used by the scaling
benchmarks — do not hit Python's recursion limit.

Invariants
----------
* Node 0 is the root; every parent pointer points at an existing node
  and the relation is acyclic (validated at construction).
* Only leaves carry requests; edge distances are non-negative and the
  root's distance is ``+∞`` (the paper's ``δ_r`` convention).
* Immutability backs the cached flat-array compilation
  (:mod:`repro.core.arrays`): solver hot loops run on the
  :class:`~repro.core.arrays.FlatTree` layout compiled at most once
  per tree, and their results are bit-identical to walking this
  object graph directly — see ``docs/performance.md``.
* :meth:`Tree.with_demands` is the one demand-copy primitive: the copy
  shares the source's validated topology (and the content key's packed
  topology columns, :class:`Topology`), checks only the changed
  entries, and derives its flat layout from the source's when that one
  is compiled.  A tick of the dynamic engine costs its changed clients,
  not a rebuild of the tree.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .errors import InvalidTreeError

__all__ = ["Tree", "TreeBuilder", "Topology", "NO_PARENT"]

#: Sentinel parent index of the root node.
NO_PARENT = -1


class Topology:
    """Data derived once per validated topology.

    One object per full :class:`Tree` construction, shared by every
    demand copy (:meth:`Tree.with_demands`).  ``key_columns`` holds the
    content key's packed ``parents`` and ``deltas`` columns
    (:func:`repro.core.instance.instance_fingerprint` fills it on first
    use), so a key of a demand copy packs only its ``requests``.
    ``arity`` is :attr:`Tree.arity`, filled on first use, so solver
    selection walks the children lists once per topology, not once per
    demand copy.
    """

    __slots__ = ("key_columns", "arity")

    def __init__(self) -> None:
        self.key_columns: Optional[bytes] = None
        self.arity: Optional[int] = None


class Tree:
    """An immutable rooted tree with edge distances and leaf requests.

    Nodes are integers ``0 .. n-1``.  The root is node ``0``.  Leaves are
    the clients ``C``; internal nodes are ``N``.  Only leaves may carry a
    non-zero request count (the paper attaches requests to clients only).

    Parameters
    ----------
    parents:
        ``parents[v]`` is the parent of ``v``; ``parents[0]`` must be
        :data:`NO_PARENT`.
    deltas:
        ``deltas[v]`` is the distance from ``v`` to its parent (``δ_v``).
        The root's entry is ignored and reported as ``math.inf`` to match
        the paper's convention ``δ_r = +∞``.
    requests:
        ``requests[v]`` is ``r_v`` for leaves, and must be 0 for internal
        nodes.

    Returns
    -------
    Tree
        A frozen topology; all derived orders (topological, weighted
        depths) are precomputed here so accessors are O(1).

    Raises
    ------
    InvalidTreeError
        If the parent relation is not a tree rooted at 0, a distance is
        negative, or an internal node carries requests.
    """

    __slots__ = (
        "_parents",
        "_deltas",
        "_requests",
        "_children",
        "_order",
        "_depth_weighted",
        "_n",
        "_flat",
        "_topology",
    )

    def __init__(
        self,
        parents: Sequence[int],
        deltas: Sequence[float],
        requests: Sequence[int],
    ) -> None:
        n = len(parents)
        if n == 0:
            raise InvalidTreeError("a tree must contain at least one node")
        if len(deltas) != n or len(requests) != n:
            raise InvalidTreeError(
                "parents, deltas and requests must have the same length "
                f"(got {n}, {len(deltas)}, {len(requests)})"
            )
        parents = [int(p) for p in parents]
        if parents[0] != NO_PARENT:
            raise InvalidTreeError("node 0 must be the root (parent == -1)")

        children: List[List[int]] = [[] for _ in range(n)]
        for v in range(1, n):
            p = parents[v]
            if not 0 <= p < n:
                raise InvalidTreeError(f"node {v} has out-of-range parent {p}")
            if p == v:
                raise InvalidTreeError(f"node {v} is its own parent")
            children[p].append(v)
        for v in range(1, n):
            if parents[v] == NO_PARENT:
                raise InvalidTreeError(f"non-root node {v} has no parent")

        # Topological (root-first) order; also detects unreachable nodes,
        # i.e. cycles in the parent relation.
        order: List[int] = [0]
        for v in order:
            order.extend(children[v])
            if len(order) > n:  # pragma: no cover - defensive
                break
        if len(order) != n:
            raise InvalidTreeError("parent relation contains a cycle")

        # ``+ 0.0`` folds -0.0 into 0.0: equal trees store equal
        # columns, which the content key packs as they are.
        dl = [float(d) + 0.0 for d in deltas]
        dl[0] = math.inf
        for v in range(1, n):
            if not dl[v] >= 0:
                raise InvalidTreeError(
                    f"edge distance of node {v} must be non-negative, got {dl[v]}"
                )

        req = [int(r) for r in requests]
        for v in range(n):
            if req[v] < 0:
                raise InvalidTreeError(f"node {v} has negative requests {req[v]}")
            if children[v] and req[v] != 0:
                raise InvalidTreeError(
                    f"internal node {v} carries {req[v]} requests; only "
                    "leaves (clients) may issue requests"
                )

        depth_w = [0.0] * n
        for v in order[1:]:
            depth_w[v] = depth_w[parents[v]] + dl[v]

        self._parents: Tuple[int, ...] = tuple(parents)
        self._deltas: Tuple[float, ...] = tuple(dl)
        self._requests: Tuple[int, ...] = tuple(req)
        self._children: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(c) for c in children
        )
        self._order: Tuple[int, ...] = tuple(order)
        self._depth_weighted: Tuple[float, ...] = tuple(depth_w)
        self._n = n
        # Lazily-compiled flat (CSR-style) layout; see core/arrays.py.
        # Trees are immutable, so the compiled layout never goes stale.
        self._flat = None
        self._topology = Topology()

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Total number of nodes ``|T| = |C| + |N|``."""
        return self._n

    @property
    def n_nodes(self) -> int:
        """Total number of nodes."""
        return self._n

    @property
    def root(self) -> int:
        """The root node (always 0)."""
        return 0

    def parent(self, v: int) -> int:
        """Parent of ``v`` (:data:`NO_PARENT` for the root)."""
        return self._parents[v]

    def delta(self, v: int) -> float:
        """Distance ``δ_v`` from ``v`` to its parent (``inf`` at the root)."""
        return self._deltas[v]

    def requests(self, v: int) -> int:
        """Requests ``r_v`` issued by node ``v`` (0 for internal nodes)."""
        return self._requests[v]

    def children(self, v: int) -> Tuple[int, ...]:
        """Children of ``v`` in insertion order."""
        return self._children[v]

    def is_leaf(self, v: int) -> bool:
        """True iff ``v`` is a client (leaf node)."""
        return not self._children[v]

    def is_internal(self, v: int) -> bool:
        """True iff ``v`` is an internal node (member of ``N``)."""
        return bool(self._children[v])

    # ------------------------------------------------------------------
    # Derived sets and quantities
    # ------------------------------------------------------------------
    @property
    def clients(self) -> Tuple[int, ...]:
        """All leaves, in topological order."""
        return tuple(v for v in self._order if not self._children[v])

    @property
    def internal_nodes(self) -> Tuple[int, ...]:
        """All internal nodes, in topological order."""
        return tuple(v for v in self._order if self._children[v])

    @property
    def arity(self) -> int:
        """Maximum number of children over all nodes (``Δ``)."""
        topology = self._topology
        if topology.arity is None:
            topology.arity = max(map(len, self._children))
        return topology.arity

    @property
    def is_binary(self) -> bool:
        """True iff every node has at most two children."""
        return self.arity <= 2

    @property
    def total_requests(self) -> int:
        """Sum of all client requests (``W_tot``)."""
        return sum(self._requests)

    @property
    def max_request(self) -> int:
        """Largest single client demand ``max_i r_i``."""
        return max(self._requests, default=0)

    def depth(self, v: int) -> float:
        """Weighted distance from ``v`` up to the root."""
        return self._depth_weighted[v]

    # ------------------------------------------------------------------
    # Traversals
    # ------------------------------------------------------------------
    def topological_order(self) -> Tuple[int, ...]:
        """Nodes ordered root-first (every node after its parent)."""
        return self._order

    def postorder(self) -> Iterator[int]:
        """Nodes ordered children-first (every node before its parent)."""
        return reversed(self._order)

    def subtree(self, v: int) -> List[int]:
        """All nodes of ``subtree(v)``, including ``v`` (iterative DFS)."""
        out = [v]
        for u in out:
            out.extend(self._children[u])
        return out

    def subtree_clients(self, v: int) -> List[int]:
        """Clients located in ``subtree(v)``."""
        return [u for u in self.subtree(v) if not self._children[u]]

    def path_to_root(self, v: int) -> List[int]:
        """Nodes on the unique path ``v → root``, inclusive at both ends."""
        path = [v]
        while self._parents[path[-1]] != NO_PARENT:
            path.append(self._parents[path[-1]])
        return path

    def distance_to_ancestor(self, v: int, a: int) -> float:
        """Weighted path distance from ``v`` up to its ancestor ``a``.

        Raises :class:`InvalidTreeError` if ``a`` is not an ancestor of
        ``v`` (a node is an ancestor of itself, at distance 0).
        """
        dist = 0.0
        node = v
        while node != a:
            p = self._parents[node]
            if p == NO_PARENT:
                raise InvalidTreeError(f"{a} is not an ancestor of {v}")
            dist += self._deltas[node]
            node = p
        return dist

    def is_ancestor(self, a: int, v: int) -> bool:
        """True iff ``a`` lies on the path from ``v`` to the root.

        Every node is an ancestor of itself.
        """
        node = v
        while node != NO_PARENT:
            if node == a:
                return True
            node = self._parents[node]
        return False

    def eligible_servers(self, client: int, dmax: Optional[float]) -> List[Tuple[int, float]]:
        """Ancestors of ``client`` (itself included) within distance ``dmax``.

        Returns ``(node, distance)`` pairs ordered from the client upward.
        ``dmax=None`` means no distance constraint: the whole root path is
        eligible.  These are exactly the nodes allowed to serve requests
        of ``client`` in the paper's model.
        """
        out: List[Tuple[int, float]] = []
        dist = 0.0
        node = client
        while node != NO_PARENT:
            if dmax is not None and dist > dmax:
                break
            out.append((node, dist))
            if self._parents[node] != NO_PARENT:
                dist += self._deltas[node]
            node = self._parents[node]
        return out

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[Tuple[int, int, float]],
        requests: Dict[int, int],
    ) -> "Tree":
        """Build a tree from ``(parent, child, distance)`` edges.

        ``requests`` maps leaf node ids to their demand; omitted nodes get
        zero requests.
        """
        parents = [NO_PARENT] * n
        deltas = [0.0] * n
        seen = set()
        for p, c, d in edges:
            if c in seen:
                raise InvalidTreeError(f"node {c} has two parents")
            seen.add(c)
            parents[c] = p
            deltas[c] = d
        reqs = [requests.get(v, 0) for v in range(n)]
        return cls(parents, deltas, reqs)

    def with_requests(self, requests: Sequence[int]) -> "Tree":
        """Return a copy of this tree with different client demands.

        ``requests`` is the whole column; the entries that differ go
        through :meth:`with_demands`.
        """
        n = self._n
        if len(requests) != n:
            raise InvalidTreeError(
                "parents, deltas and requests must have the same length "
                f"(got {n}, {n}, {len(requests)})"
            )
        old = self._requests
        return self.with_demands(
            {v: r for v, r in enumerate(requests) if r != old[v]}
        )

    def with_demands(self, levels: Mapping[int, int]) -> "Tree":
        """Return a copy of this tree with the clients' demands in
        ``levels`` (node -> requests) replaced.

        The copy shares this tree's validated topology — parents,
        distances, children, orders, depths and :class:`Topology` — so
        only the changed entries are checked: each must name a leaf and
        carry a non-negative integer level.  When this tree's flat
        layout is compiled, the copy gets one derived from it
        (:meth:`repro.core.arrays.FlatTree.with_demands`).  The copy
        holds no reference to this tree.

        Raises
        ------
        InvalidTreeError
            If a node is unknown, internal with a non-zero level, or
            given a negative level.
        """
        n = self._n
        requests = list(self._requests)
        changed: List[int] = []
        for v, r in levels.items():
            if not 0 <= v < n:
                raise InvalidTreeError(f"node {v} is not in the tree")
            r = int(r)
            if r < 0:
                raise InvalidTreeError(f"node {v} has negative requests {r}")
            if self._children[v] and r != 0:
                raise InvalidTreeError(
                    f"internal node {v} carries {r} requests; only "
                    "leaves (clients) may issue requests"
                )
            if requests[v] != r:
                requests[v] = r
                changed.append(v)
        copy = Tree.__new__(Tree)
        copy._parents = self._parents
        copy._deltas = self._deltas
        copy._requests = tuple(requests)
        copy._children = self._children
        copy._order = self._order
        copy._depth_weighted = self._depth_weighted
        copy._n = n
        copy._topology = self._topology
        flat = self._flat
        copy._flat = flat.with_demands(changed, requests) if flat is not None else None
        return copy

    def with_deltas(self, deltas: Sequence[float]) -> "Tree":
        """Return a copy of this tree with different edge distances."""
        return Tree(self._parents, deltas, self._requests)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Tree(n={self._n}, clients={len(self.clients)}, "
            f"arity={self.arity}, total_requests={self.total_requests})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        return (
            self._parents == other._parents
            and self._deltas == other._deltas
            and self._requests == other._requests
        )

    def __hash__(self) -> int:
        return hash((self._parents, self._deltas, self._requests))


class TreeBuilder:
    """Incremental construction of a :class:`Tree`.

    Nodes are added one at a time; the first added node is the root.
    ``add`` returns the node id, which is then usable as a parent handle:

    >>> b = TreeBuilder()
    >>> root = b.add_root()
    >>> mid = b.add(root, delta=2.0)
    >>> leaf = b.add(mid, delta=1.0, requests=5)
    >>> tree = b.build()
    >>> tree.requests(leaf)
    5
    """

    def __init__(self) -> None:
        self._parents: List[int] = []
        self._deltas: List[float] = []
        self._requests: List[int] = []

    def add_root(self) -> int:
        """Add the root node (must be called first, exactly once)."""
        if self._parents:
            raise InvalidTreeError("root already added")
        self._parents.append(NO_PARENT)
        self._deltas.append(math.inf)
        self._requests.append(0)
        return 0

    def add(self, parent: int, delta: float = 1.0, requests: int = 0) -> int:
        """Add a node under ``parent`` at distance ``delta``.

        ``requests`` may only be non-zero if the node stays a leaf.
        """
        if not self._parents:
            raise InvalidTreeError("add the root before other nodes")
        if not 0 <= parent < len(self._parents):
            raise InvalidTreeError(f"unknown parent node {parent}")
        self._parents.append(parent)
        self._deltas.append(float(delta))
        self._requests.append(int(requests))
        return len(self._parents) - 1

    def add_chain(self, parent: int, deltas: Sequence[float]) -> List[int]:
        """Add a descending chain of nodes; returns their ids top-down."""
        out = []
        for d in deltas:
            parent = self.add(parent, d)
            out.append(parent)
        return out

    @property
    def n_nodes(self) -> int:
        """Number of nodes added so far."""
        return len(self._parents)

    @property
    def parents(self) -> Tuple[int, ...]:
        """Parent pointers of the nodes added so far (root is -1)."""
        return tuple(self._parents)

    def build(self) -> Tree:
        """Validate and freeze into an immutable :class:`Tree`."""
        return Tree(self._parents, self._deltas, self._requests)
