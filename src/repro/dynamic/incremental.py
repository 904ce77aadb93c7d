"""Incremental bottom-up solvers with per-subtree memoization.

Both NoD solvers in this repository are bottom-up folds: each node's
result is a pure function of its own data and what its children hand
up (DP threshold rows for ``multiple-nod-dp``, entry exports for
``single-nod``).  Each solver's module defines that per-node step once,
as ``fold`` over post positions, and its cold solve folds every
position.  The backends here run the same ``fold``: they cache the
per-position results, find the positions whose demand or failed flag
changed since the last fold (:func:`_changes`), and re-fold only those
positions and their root paths, while every untouched sibling subtree
is reused verbatim.

Because a cache hit returns the byte-identical intermediate state a
cold run would compute, the incremental result **equals a from-scratch
solve exactly** — same cost, same placement — not just approximately.
That invariant is property-tested over randomized event traces in
``tests/test_dynamic.py``.

What a sparse tick costs
------------------------
A tick of the dynamic engine folds its events into a demand copy of
the tree whose flat layout is *derived* from the previous one
(:mod:`repro.core.arrays`): it already lists its changed positions and
their root paths.  When that layout's source is the one a backend last
folded, those are the re-fold set, with no column diff; otherwise
(after a failed solve, a cold backend such as ``resolve_full``'s, or a
snapshot restore) the demand column is diffed against the last fold's.
Around the re-fold, each backend keeps its placement state per node
and updates only the dirty part:

* :class:`IncrementalSingleNod` keeps the placement's site multiset and
  ``(client, site) -> amount`` map, retracts the dirty nodes' old
  contributions before their re-fold and adds the new ones after;
* :class:`IncrementalNodDP` keeps a
  :class:`~repro.algorithms.multiple_nod_dp.Reconstruction` — per
  position the forwarded amount, the replica decision and the routing —
  and re-walks and re-routes only what the dirty root paths and the
  flipped replica flags reach.

Each emits a fresh :class:`~repro.core.placement.Placement` over a
``dict.copy`` of its ``(client, site) -> amount`` map, a clone of the
table with no key hashed, and rebuilds that map once the entries
deleted from it outnumber half the live ones: below that ``copy``
would re-insert every key (:meth:`NodRoutes.route
<repro.algorithms.feasibility.NodRoutes.route>`).  A tick whose root
paths cover more than
:data:`~repro.core.arrays.DENSE_FRACTION` of the nodes rebuilds that
state whole instead — the cold code path with every position dirty.

Two backends:

* :class:`IncrementalNodDP` — the exact Multiple-NoD dynamic program,
  extended with *forbidden hosts* so server failures are handled inside
  the optimality framework: a failed leaf must forward its demand, a
  failed internal node loses its absorb branch.  Still exact among
  placements avoiding the failed hosts.
* :class:`IncrementalSingleNod` — the paper's Algorithm 2, through
  :func:`repro.algorithms.single_nod.fold`: per position, the
  *export* (the aggregate entry or leftover entries a subtree pushes to
  its parent) and the replicas opened there.  Forbidden hosts are
  **not** expressible in the greedy's replica-site choices;
  :class:`IncrementalUnsupported` is raised and the engine falls back
  (see :mod:`repro.dynamic.engine`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import ne
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..algorithms.multiple_nod_dp import NodeFold, Reconstruction, fold, place
from ..algorithms.single_nod import Contribution, Export, add
from ..algorithms.single_nod import fold as single_fold
from ..core.arrays import DENSE_FRACTION, FlatTree, flat_tree
from ..core.errors import InfeasibleInstanceError, PolicyError, ReproError
from ..core.instance import ProblemInstance
from ..core.placement import Placement
from ..core.policies import Policy

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


#: What a backend's last completed fold ran on: ``(layout, W, failed)``.
_FoldInputs = Tuple[FlatTree, int, FrozenSet[int]]


def _changes(
    last: Optional[_FoldInputs], ft: FlatTree, W: int, failed: FrozenSet[int]
) -> Tuple[Optional[List[int]], List[int]]:
    """What to re-fold: ``(changed, dirty)``.

    ``changed`` lists the post positions whose demand or failed flag
    differs from the last fold's, and ``dirty`` their root paths,
    ascending (children before parents): a node's fold depends only on
    its subtree and ``W``.  ``changed`` is ``None`` and ``dirty`` every
    position when there is no last fold, or when ``W``, the parents,
    the post order or the deltas changed.  A layout derived from the
    last fold's carries both lists already; any other layout is diffed
    column by column.  ``dirty`` may be the layout's own list: read it,
    never mutate it.
    """
    n = ft.n
    if last is None:
        return None, list(range(n))
    last_ft, last_W, last_failed = last
    if W != last_W:
        return None, list(range(n))
    orig_to_post = ft.orig_to_post
    flags = [orig_to_post[v] for v in failed ^ last_failed if 0 <= v < n]
    if ft is last_ft:
        changed: List[int] = []
    elif ft.source == last_ft.serial:
        if not flags:
            return ft.changed, ft.dirty
        changed = list(ft.changed)
    elif (
        ft.post_to_orig != last_ft.post_to_orig
        or ft.parent != last_ft.parent
        or ft.delta != last_ft.delta
    ):
        return None, list(range(n))
    else:
        changed = list(compress(range(n), map(ne, ft.demand, last_ft.demand)))
    changed.extend(flags)
    return changed, ft.root_paths(changed)


class IncrementalNodDP:
    """Memoized exact Multiple-NoD DP with forbidden-host support.

    The per-node cache stores the node's fold — its threshold row plus
    the pool rows reconstruction reads — from
    :func:`repro.algorithms.multiple_nod_dp.fold`; the placement comes
    from the same :func:`~repro.algorithms.multiple_nod_dp.place` as a
    cold solve, fed the last placement's
    :class:`~repro.algorithms.multiple_nod_dp.Reconstruction`.
    ``solve`` may be called repeatedly with mutated instances: it
    re-folds only the nodes whose demand or failed flag changed since
    the last solve, and their root paths, and re-walks and re-routes
    only what those changes reach.
    """

    name = "multiple-nod-dp"
    policy = Policy.MULTIPLE

    def __init__(self) -> None:
        # One fold per post position, valid for ``_last``'s inputs.
        self._folds: List[Optional[NodeFold]] = []
        self._last: Optional[_FoldInputs] = None
        # The last placement's walk and routing, valid for those folds.
        self._memo: Optional[Reconstruction] = None

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
        W = instance.capacity
        ft = flat_tree(instance.tree)
        n = ft.n
        _changed, dirty = _changes(self._last, ft, W, failed)
        # Cleared while the memos are being rewritten, so an exception
        # mid-fold or mid-place makes the next solve rebuild them.
        self._last = None
        memo, self._memo = self._memo, None
        if len(self._folds) != n:
            self._folds = [None] * n
        fold(ft, W, self._folds, dirty, failed)
        self._last = (ft, W, failed)

        walk: Optional[List[int]] = dirty
        if memo is None or len(dirty) > DENSE_FRACTION * n:
            memo, walk = Reconstruction(n), None
        placement = place(instance, ft, self._folds, failed, memo, walk)
        self._memo = memo
        return placement, IncrementalStats(n, n - len(dirty), len(dirty))


class IncrementalSingleNod:
    """Memoized Algorithm 2 (``single-nod``) for Single-NoD.

    The per-position caches hold each node's export and contribution
    from :func:`repro.algorithms.single_nod.fold`, the fold a cold
    :func:`~repro.algorithms.single_nod.single_nod` runs over every
    position.  ``solve`` may be called repeatedly with mutated
    instances: it re-folds only the nodes whose demand changed since the
    last solve, and their root paths, and moves only their
    contributions in and out of the placement maps — so incremental and
    from-scratch runs return *identical* placements, not merely equal
    costs.
    """

    name = "single-nod"
    policy = Policy.SINGLE

    def __init__(self) -> None:
        # One export and one contribution per post position, valid for
        # ``_last``'s inputs.
        self._exports: List[Export] = []
        self._contributions: List[Contribution] = []
        self._last: Optional[_FoldInputs] = None
        # The placement of those contributions: replica site -> number
        # of contributions opening it, (client, site) -> amount, and the
        # entries deleted from ``_amounts`` since it was last built.
        self._sites: Dict[int, int] = {}
        self._amounts: Dict[Tuple[int, int], int] = {}
        self._deleted = 0

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
        ft = flat_tree(tree)
        n = ft.n
        changed, dirty = _changes(self._last, ft, W, failed)
        # The last fold passed this check at the same W, so on a tick
        # only the changed clients can fail it.
        demand = ft.demand
        if (
            tree.max_request
            if changed is None
            else max([demand[p] for p in changed], default=0)
        ) > W:
            raise InfeasibleInstanceError(
                f"a client demands {tree.max_request} > W={W}; "
                "no Single placement exists"
            )
        # The caches and the placement maps are rewritten in place:
        # clear the record first, so an exception mid-fold makes the
        # next solve rebuild everything.
        whole = self._last is None or len(dirty) > DENSE_FRACTION * n
        self._last = None
        if len(self._exports) != n:
            self._exports = [None] * n
            self._contributions = [()] * n
        exports, contributions = self._exports, self._contributions
        if whole:
            single_fold(ft, W, exports, contributions, dirty)
            self._sites, self._amounts = sites, amounts = {}, {}
            self._deleted = 0
            add(sites, amounts, contributions)
        else:
            sites, amounts = self._sites, self._amounts
            self._deleted += _retract(
                sites, amounts, [contributions[p] for p in dirty]
            )
            single_fold(ft, W, exports, contributions, dirty)
            add(sites, amounts, [contributions[p] for p in dirty])
            # Rebuilt past the bound NodRoutes.route explains, so the
            # snapshot below stays a clone of the table.
            if 2 * self._deleted > len(amounts):
                self._amounts = amounts = dict(amounts)
                self._deleted = 0
        self._last = (ft, W, failed)

        stats = IncrementalStats(n, n - len(dirty), len(dirty))
        placement = Placement._trusted(frozenset(sites), amounts.copy())
        return placement, stats


def _retract(
    sites: Dict[int, int],
    amounts: Dict[Tuple[int, int], int],
    contributions: List[Contribution],
) -> int:
    """Take the replicas of ``contributions`` back out of the placement
    maps (the inverse of :func:`~repro.algorithms.single_nod.add`).

    Returns the number of entries deleted from ``amounts``.
    """
    deleted = 0
    for contribution in contributions:
        for site, bundle in contribution:
            left = sites[site] - 1
            if left:
                sites[site] = left
            else:
                del sites[site]
            for client, amount in bundle:
                key = (client, site)
                left = amounts[key] - amount
                if left:
                    amounts[key] = left
                else:
                    del amounts[key]
                    deleted += 1
    return deleted
