"""Incremental bottom-up solvers with per-subtree memoization.

Both NoD solvers in this repository are bottom-up folds: each node's
contribution is a pure function of its own data and what its children
hand up (DP threshold rows for ``multiple-nod-dp``, entry bundles for
``single-nod``).  That makes them incrementally recomputable: cache the
per-node fold results keyed by the node's *subtree fingerprint*
(:mod:`repro.dynamic.fingerprints`), and after an event only the nodes
whose fingerprint changed — the event site and its root path — are
re-folded, while every untouched sibling subtree is reused verbatim.

Because a cache hit returns the byte-identical intermediate state a
cold run would compute, the incremental result **equals a from-scratch
solve exactly** — same cost, same placement — not just approximately.
That invariant is property-tested over randomized event traces in
``tests/test_dynamic.py``.

Two backends:

* :class:`IncrementalNodDP` — the exact Multiple-NoD dynamic program,
  extended with *forbidden hosts* so server failures are handled inside
  the optimality framework: a failed leaf must forward its demand, a
  failed internal node loses its absorb branch.  Still exact among
  placements avoiding the failed hosts.
* :class:`IncrementalSingleNod` — the paper's Algorithm 2 re-expressed
  as a fold over per-subtree *exports* (the aggregate entry or leftover
  entries a subtree pushes to its parent).  Greedy tie-breaking is
  reproduced exactly, including the original's reversed-children inbox
  order.  Forbidden hosts are **not** expressible in the greedy's
  replica-site choices; :class:`IncrementalUnsupported` is raised and
  the engine falls back (see :mod:`repro.dynamic.engine`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..algorithms.multiple_nod_dp import NodeFold, fold, place
from ..core.arrays import flat_tree
from ..core.errors import InfeasibleInstanceError, PolicyError, ReproError
from ..core.instance import ProblemInstance
from ..core.kernels import prefix_fit, stable_argsort
from ..core.placement import Placement
from ..core.policies import Policy
from .fingerprints import instance_salt, subtree_fingerprints

__all__ = [
    "IncrementalStats",
    "IncrementalUnsupported",
    "IncrementalNodDP",
    "IncrementalSingleNod",
]


class IncrementalUnsupported(ReproError):
    """The incremental backend cannot express this scenario.

    Raised instead of silently computing a wrong answer — the engine
    catches it and takes the documented fallback path.
    """


@dataclass(frozen=True)
class IncrementalStats:
    """How much work one incremental solve reused vs redid."""

    nodes_total: int = 0
    nodes_reused: int = 0
    nodes_recomputed: int = 0

    @property
    def reuse_fraction(self) -> float:
        """Reused nodes over all nodes (0.0 on a cold run)."""
        return self.nodes_reused / self.nodes_total if self.nodes_total else 0.0


def _check_nod(instance: ProblemInstance, who: str) -> None:
    if instance.has_distance_constraint:
        raise PolicyError(
            f"{who} solves the NoD variants only; distance-constrained "
            "instances take the engine's full-resolve fallback"
        )


class IncrementalNodDP:
    """Memoized exact Multiple-NoD DP with forbidden-host support.

    The per-node cache stores the node's fold — its threshold row plus
    the pool rows reconstruction reads — from
    :func:`repro.algorithms.multiple_nod_dp.fold`; the placement comes
    from the same :func:`~repro.algorithms.multiple_nod_dp.place` as a
    cold solve.  ``solve`` may be called repeatedly with mutated
    instances of the *same topology* (node set and parent relation); a
    topology change clears the cache.
    """

    name = "multiple-nod-dp"
    policy = Policy.MULTIPLE

    def __init__(self) -> None:
        self._topology: Optional[Tuple[int, ...]] = None
        # node -> (fingerprint, fold)
        self._memo: Dict[int, Tuple[bytes, NodeFold]] = {}

    # ------------------------------------------------------------------
    def solve(
        self,
        instance: ProblemInstance,
        failed: FrozenSet[int] = frozenset(),
    ) -> Tuple[Placement, IncrementalStats]:
        """Optimal Multiple-NoD placement avoiding the ``failed`` hosts.

        Parameters
        ----------
        instance:
            A Multiple-NoD instance (``dmax is None``).
        failed:
            Nodes that may not host a replica (they still route).

        Returns
        -------
        ``(placement, stats)`` — the optimal placement among those with
        no replica on a failed host, and the reuse statistics.  With no
        failed host the placement equals
        :func:`~repro.algorithms.multiple_nod_dp.multiple_nod_dp`'s.

        Raises
        ------
        PolicyError
            If the instance carries a distance constraint or the Single
            policy.
        InfeasibleInstanceError
            If the demand cannot be covered without the failed hosts.
        """
        _check_nod(instance, "IncrementalNodDP")
        if instance.policy is not Policy.MULTIPLE:
            raise PolicyError("IncrementalNodDP solves Multiple instances")
        tree = instance.tree
        W = instance.capacity
        n = len(tree)

        topology = tuple(tree.parent(v) for v in range(n))
        if topology != self._topology:
            self._memo.clear()
            self._topology = topology

        # The re-fold runs on the flat substrate, post positions
        # children-first.  The memo stays keyed by *original* node ids
        # — that is what the fingerprints key on, and it keeps cached
        # folds valid across the fresh Tree objects each event produces.
        # Cached folds name children by post position, which the
        # topology fixes.
        ft = flat_tree(tree)
        post_to_orig = ft.post_to_orig
        fps = subtree_fingerprints(tree, instance_salt(instance), failed)

        memo = self._memo
        folds: List[Optional[NodeFold]] = [None] * n
        dirty: List[int] = []
        for p in range(n):
            v = post_to_orig[p]
            cached = memo.get(v)
            if cached is not None and cached[0] == fps[v]:
                folds[p] = cached[1]
            else:
                dirty.append(p)
        fold(ft, W, folds, dirty, failed)
        for p in dirty:
            v = post_to_orig[p]
            memo[v] = (fps[v], folds[p])

        placement = place(instance, ft, folds, failed)
        return placement, IncrementalStats(n, n - len(dirty), len(dirty))


# ----------------------------------------------------------------------
# Single-NoD: Algorithm 2 as a fold over per-subtree exports.
# ----------------------------------------------------------------------

#: An entry: a pending group of whole clients rooted at ``node``.
#: ``bundle`` is a tuple of ``(client, amount)`` pairs; demand ≤ W.
_Entry = Tuple[int, int, Tuple[Tuple[int, int], ...]]
#: What subtree(v) pushes to parent(v): one aggregate entry, leftover
#: entries from a packing at v, or nothing.
_Export = Optional[Tuple[str, tuple]]
#: Replicas opened while processing a node: ((site, bundle), ...).
_Contribution = Tuple[Tuple[int, Tuple[Tuple[int, int], ...]], ...]


class IncrementalSingleNod:
    """Memoized Algorithm 2 (``single-nod``) for Single-NoD.

    Every node's processing is a pure function of its children's
    exports, so per-subtree results memoize exactly like the DP.  The
    original's tie-breaking is reproduced bit-for-bit: leftover entries
    arrive in reversed-children order (the from-scratch postorder inbox
    order), aggregates in children order, and the packing sort is
    stable — so incremental and from-scratch runs return *identical*
    placements, not merely equal costs.
    """

    name = "single-nod"
    policy = Policy.SINGLE

    def __init__(self) -> None:
        self._topology: Optional[Tuple[int, ...]] = None
        # node -> (fingerprint, export, contribution)
        self._memo: Dict[int, Tuple[bytes, _Export, _Contribution]] = {}

    # ------------------------------------------------------------------
    def solve(
        self,
        instance: ProblemInstance,
        failed: FrozenSet[int] = frozenset(),
    ) -> Tuple[Placement, IncrementalStats]:
        """Single-NoD placement via the memoized greedy fold.

        Parameters
        ----------
        instance:
            A Single-NoD instance (``dmax is None``).
        failed:
            Must be empty — the greedy pins replica sites (``j``, the
            overflow entry's node, root leftovers) and cannot relocate
            them; pass failures through the engine's repair fallback.

        Returns
        -------
        ``(placement, stats)`` — identical to a from-scratch
        :func:`repro.algorithms.single_nod.single_nod` run.

        Raises
        ------
        IncrementalUnsupported
            If ``failed`` is non-empty.
        PolicyError
            If the instance carries a distance constraint or the
            Multiple policy.
        InfeasibleInstanceError
            If some client demands more than ``W``.
        """
        _check_nod(instance, "IncrementalSingleNod")
        if instance.policy is not Policy.SINGLE:
            raise PolicyError("IncrementalSingleNod solves Single instances")
        if failed:
            raise IncrementalUnsupported(
                "single-nod pins replica sites; failed hosts are handled "
                "by the engine's greedy-repair fallback"
            )
        tree = instance.tree
        W = instance.capacity
        if tree.max_request > W:
            raise InfeasibleInstanceError(
                f"a client demands {tree.max_request} > W={W}; "
                "no Single placement exists"
            )

        topology = tuple(tree.parent(v) for v in range(len(tree)))
        if topology != self._topology:
            self._memo.clear()
            self._topology = topology

        fps = subtree_fingerprints(tree, instance_salt(instance), failed)
        ft = flat_tree(tree)
        memo = self._memo
        reused = recomputed = 0
        for p in range(ft.n):
            j = ft.post_to_orig[p]
            cached = memo.get(j)
            if cached is not None and cached[0] == fps[j]:
                reused += 1
                continue
            recomputed += 1
            export, contribution = self._process(ft, W, p)
            memo[j] = (fps[j], export, contribution)

        replicas: List[int] = []
        assignments: Dict[Tuple[int, int], int] = {}
        for j in tree.topological_order():
            for site, bundle in memo[j][2]:
                replicas.append(site)
                for client, amount in bundle:
                    assignments[(client, site)] = (
                        assignments.get((client, site), 0) + amount
                    )
        stats = IncrementalStats(len(tree), reused, recomputed)
        return Placement(replicas, assignments), stats

    # ------------------------------------------------------------------
    def _process(self, ft, W: int, p: int) -> Tuple[_Export, _Contribution]:
        """Fold one node given its children's memoized exports.

        Parameters
        ----------
        ft:
            The instance tree's :class:`~repro.core.arrays.FlatTree`;
            the fold walks its ``first_child`` / ``next_sibling``
            chains and ``demand`` array instead of the object graph.
        W:
            Server capacity.
        p:
            Post position of the node to fold (exports and
            contributions still carry *original* node ids — the memo
            key space).

        Returns
        -------
        ``(export, contribution)`` — what ``subtree(p)`` pushes to its
        parent, and the replicas opened while processing ``p``;
        bit-identical to the from-scratch Algorithm 2.
        """
        post_to_orig = ft.post_to_orig
        j = post_to_orig[p]
        is_root = p == ft.root
        if ft.first_child[p] < 0:
            r = ft.demand[p]
            if is_root:
                return None, (((j, ((j, r),)),) if r > 0 else ())
            if r == 0:
                return None, ()
            return ("agg", ((j, r, ((j, r),)),)), ()

        # Reproduce the from-scratch entry order: the postorder inbox
        # collects leftovers child-by-child in *reversed* children order,
        # then aggregates append in children order.
        entries: List[_Entry] = []
        children: List[int] = []
        c = ft.first_child[p]
        while c >= 0:
            children.append(post_to_orig[c])
            c = ft.next_sibling[c]
        for c in reversed(children):
            export = self._memo[c][1]
            if export is not None and export[0] == "left":
                entries.extend(export[1])
        for c in children:
            export = self._memo[c][1]
            if export is not None and export[0] == "agg":
                entries.extend(export[1])

        total = sum(e[1] for e in entries)
        if total > W:
            # Stable smallest-first packing, as in Algorithm 2 — the
            # shared kernel helpers keep every tie-break identical.
            order = stable_argsort([e[1] for e in entries])
            entries = [entries[i] for i in order]
            k = prefix_fit([e[1] for e in entries], W)
            assert k < len(entries)  # total > W and demands ≤ W
            overflow = entries[k]
            contribution: List[Tuple[int, Tuple[Tuple[int, int], ...]]] = [
                (j, _merge_bundles(entries[:k])),
                (overflow[0], overflow[2]),
            ]
            leftovers = tuple(entries[k + 1 :])
            if not is_root:
                return ("left", leftovers), tuple(contribution)
            # Paper's R3: at the root, each leftover opens its own replica.
            contribution.extend((e[0], e[2]) for e in leftovers)
            return None, tuple(contribution)

        if total == 0:
            return None, ()
        merged = (j, total, _merge_bundles(entries))
        if is_root:
            return None, ((j, merged[2]),)
        return ("agg", (merged,)), ()


def _merge_bundles(
    entries: Sequence[_Entry],
) -> Tuple[Tuple[int, int], ...]:
    out: List[Tuple[int, int]] = []
    for _node, _demand, bundle in entries:
        out.extend(bundle)
    return tuple(out)
