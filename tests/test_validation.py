"""Unit tests for the independent checker (repro.core.validation)."""

from __future__ import annotations

import random
from typing import Dict, Iterator, Optional, Sequence, Set, Tuple

import pytest

from repro import (
    InvalidPlacementError,
    Placement,
    Policy,
    ProblemInstance,
    check_placement,
    is_valid,
    placement_violations,
)
from repro.algorithms import multiple_greedy, single_gen
from repro.core.arrays import flat_tree
from repro.core.validation import iter_violations
from repro.scenarios import FAMILIES, build_scenario


def oracle_violations(
    instance: ProblemInstance,
    placement: Placement,
    clients: Optional[Sequence[int]] = None,
) -> Iterator[Tuple[str, str]]:
    """The checker as it was before it ran on the flat layout: sorted
    assignments, root-path walks on the :class:`Tree`.  It shares no
    code with :func:`iter_violations` beyond the tree's accessors, and
    the two must agree on every rule, message and order."""
    tree = instance.tree
    W = instance.capacity
    dmax = instance.dmax
    sample = None if clients is None else set(clients)

    n = len(tree)
    replicas = placement.replicas
    for r in replicas:
        if not 0 <= r < n:
            yield "registration", f"replica {r} is not a node of the tree"

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

    for s, load in placement.loads().items():
        if load > W:
            yield "capacity", f"server {s} processes {load} > W={W} requests"


def valid_placement(paper_example):
    # Serve clients 3,4 at n1 (loads 7 <= 8); 5,6 at n2 (7 <= 8).
    return Placement(
        [1, 2],
        {(3, 1): 4, (4, 1): 3, (5, 2): 5, (6, 2): 2},
    )


class TestValidPlacements:
    def test_valid_passes(self, paper_example):
        p = valid_placement(paper_example)
        assert placement_violations(paper_example, p) == []
        assert is_valid(paper_example, p)
        check_placement(paper_example, p)  # no raise

    def test_self_serving_always_valid(self, paper_example):
        t = paper_example.tree
        p = Placement(
            list(t.clients), {(c, c): t.requests(c) for c in t.clients}
        )
        assert is_valid(paper_example, p)

    def test_multiple_split_valid(self, paper_example):
        inst = paper_example.with_policy(Policy.MULTIPLE)
        p = Placement(
            [1, 0, 2, 5],
            {
                (3, 1): 2,
                (3, 0): 2,
                (4, 1): 3,
                (5, 5): 5,
                (6, 2): 2,
            },
        )
        assert is_valid(inst, p)


class TestViolationDetection:
    def test_incomplete_assignment(self, paper_example):
        p = Placement([1, 2], {(3, 1): 4, (4, 1): 3, (5, 2): 4, (6, 2): 2})
        probs = placement_violations(paper_example, p)
        assert any("client 5" in m and "4 are assigned" in m for m in probs)

    def test_over_assignment_detected(self, paper_example):
        p = Placement([1, 2], {(3, 1): 5, (4, 1): 3, (5, 2): 5, (6, 2): 2})
        probs = placement_violations(paper_example, p)
        assert any("client 3" in m for m in probs)

    def test_single_policy_split_rejected(self, paper_example):
        p = Placement(
            [0, 1, 2],
            {(3, 1): 2, (3, 0): 2, (4, 1): 3, (5, 2): 5, (6, 2): 2},
        )
        probs = placement_violations(paper_example, p)
        assert any("Single policy violated" in m for m in probs)

    def test_same_split_fine_under_multiple(self, paper_example):
        inst = paper_example.with_policy(Policy.MULTIPLE)
        p = Placement(
            [0, 1, 2],
            {(3, 1): 2, (3, 0): 2, (4, 1): 3, (5, 2): 5, (6, 2): 2},
        )
        assert is_valid(inst, p)

    def test_capacity_violation(self, paper_example):
        # n1 takes all 4+3 plus c5's 5 = impossible anyway (not ancestor);
        # use root to exceed W=8 legally ancestry-wise.
        p = Placement(
            [0],
            {(3, 0): 4, (4, 0): 3, (5, 0): 5, (6, 0): 2},
        )
        probs = placement_violations(paper_example, p)
        assert any("W=8" in m for m in probs)

    def test_distance_violation(self, paper_example):
        # c4 at distance 3 from root: fine (dmax=4); c5 from root is 3;
        # tighten by serving c4 at root after raising its edge? Instead
        # serve c5 (distance 3) at root with dmax=4 is fine — use c4 at
        # n0 (3 <= 4) fine too. Take instance with dmax=2.5.
        inst = paper_example
        tight = type(inst)(inst.tree, inst.capacity, 2.5, inst.policy)
        p = Placement(
            [0, 1, 2],
            {(3, 1): 4, (4, 0): 3, (5, 2): 5, (6, 2): 2},
        )
        probs = placement_violations(tight, p)
        assert any("dmax" in m and "client 4" in m for m in probs)

    def test_ancestry_violation(self, paper_example):
        # n2 is not an ancestor of client 3.
        p = Placement(
            [1, 2],
            {(3, 2): 4, (4, 1): 3, (5, 2): 5, (6, 2): 2},
        )
        probs = placement_violations(paper_example, p)
        assert any("subtree constraint" in m for m in probs)

    def test_unregistered_server(self, paper_example):
        p = Placement(
            [2],
            {(3, 1): 4, (4, 1): 3, (5, 2): 5, (6, 2): 2},
        )
        probs = placement_violations(paper_example, p)
        assert any("not in R" in m for m in probs)

    def test_non_leaf_client(self, paper_example):
        p = Placement([0], {(1, 0): 1})
        probs = placement_violations(paper_example, p)
        assert any("not a leaf client" in m for m in probs)

    def test_out_of_range_nodes(self, paper_example):
        p = Placement([99], {(3, 99): 4})
        probs = placement_violations(paper_example, p)
        assert any("not a node" in m or "not a tree node" in m for m in probs)

    def test_check_placement_raises(self, paper_example):
        p = Placement([], {})
        with pytest.raises(InvalidPlacementError):
            check_placement(paper_example, p)

    def test_idle_replica_is_allowed(self, paper_example):
        # Idle replicas are wasteful but not invalid (they count in |R|).
        p = Placement(
            [0, 1, 2],
            {(3, 1): 4, (4, 1): 3, (5, 2): 5, (6, 2): 2},
        )
        assert is_valid(paper_example, p)


def _mutants(tree, placement):
    """``placement`` and one corruption of it per constraint."""
    root = tree.root
    amap = placement.assignments
    (c, s), amount = sorted(amap.items())[0]
    others = {k: v for k, v in amap.items() if k != (c, s)}
    stranger = next(v for v in tree.clients if v != c)
    yield placement
    # completeness: a client loses its assignment; a non-client gains one
    yield Placement(placement.replicas, others)
    yield Placement(placement.replicas, {**amap, (root, root): 1, (10**6, s): 1})
    # ancestry: another client serves c
    yield Placement(placement.replicas | {stranger}, {**others, (c, stranger): amount})
    # policy and capacity: c split with the root, then everyone at the root
    if amount > 1 and s != root:
        yield Placement(placement.replicas | {root}, {**others, (c, s): 1, (c, root): amount - 1})
    yield Placement({root}, {(v, root): tree.requests(v) for v in tree.clients if tree.requests(v)})
    # registration: a used server leaves R, and a replica is no node
    yield Placement((placement.replicas - {s}) | {len(tree)}, amap)


class TestClientSample:
    """Auditing every client by name is the full check; a sample checks less."""

    RULES = {"completeness", "policy", "ancestry", "distance", "capacity", "registration"}

    def _cases(self):
        for family in sorted(FAMILIES):
            for policy in (Policy.SINGLE, Policy.MULTIPLE):
                base = build_scenario(family, size=14, capacity=10, seed=2, policy=policy)
                placement = single_gen(base)
                assert placement_violations(base, placement) == []
                tight = ProblemInstance(base.tree, base.capacity, 1.0, policy)
                for inst in (base, tight):
                    for p in _mutants(base.tree, placement):
                        yield inst, p

    def test_all_clients_equals_full_check(self):
        seen = set()
        for inst, p in self._cases():
            full = placement_violations(inst, p)
            assert placement_violations(inst, p, clients=inst.tree.clients) == full
            seen.update(rule for rule, _message in iter_violations(inst, p))
        assert seen == self.RULES

    def test_sample_keeps_whole_placement_rules(self):
        whole = {"registration", "capacity"}
        for inst, p in self._cases():
            full = list(iter_violations(inst, p))
            part = list(iter_violations(inst, p, clients=inst.tree.clients[::3]))
            assert set(part) <= set(full)
            assert [f for f in full if f[0] in whole] == [f for f in part if f[0] in whole]
            keys = [f for f in full if "not a leaf client" in f[1]]
            assert keys == [f for f in part if "not a leaf client" in f[1]]


def _more_mutants(tree, placement):
    """Corruptions :func:`_mutants` leaves out: ids outside the tree on
    either side of an assignment, an internal node as a client, several
    servers per client, and clients whose demand no longer matches."""
    n = len(tree)
    root = tree.root
    amap = placement.assignments
    keys = sorted(amap)
    internal = tree.internal_nodes[-1]
    # A server outside the tree, a negative client and a negative replica.
    yield Placement(placement.replicas | {-2}, {**amap, (keys[0][0], n + 5): 1, (-1, root): 2})
    # An internal node as a client, served by itself and by the root.
    yield Placement(placement.replicas | {internal, root},
                    {**amap, (internal, internal): 1, (internal, root): 2})
    # Every client split over its own leaf and the root, shuffled insertion.
    split = {}
    for c in tree.clients:
        r = tree.requests(c)
        if r >= 2:
            split[(c, c)] = r - 1
            split[(c, root)] = 1
        elif r:
            split[(c, root)] = r
    items = list(split.items())
    random.Random(len(items)).shuffle(items)
    yield Placement(set(tree.clients) | {root}, dict(items))
    # Each assignment one unit over, and every server dropped from R.
    yield Placement((), {k: a + 1 for k, a in amap.items()})


class TestFlatCheckerMatchesOracle:
    """The flat checker yields the oracle's findings, rule for rule, in
    the same order, with and without a client sample."""

    def _cases(self):
        for family in sorted(FAMILIES):
            for policy in (Policy.SINGLE, Policy.MULTIPLE):
                base = build_scenario(family, size=14, capacity=10, seed=2, policy=policy)
                tree = base.tree
                placements = [single_gen(base)]
                if policy is Policy.MULTIPLE:
                    placements.append(multiple_greedy(base))
                # Two clients with no demand left, still assigned.
                idle = tree.with_demands({tree.clients[0]: 0, tree.clients[-1]: 0})
                instances = [
                    base,
                    ProblemInstance(tree, base.capacity, 1.0, policy),
                    ProblemInstance(tree, 3, 0.0, policy),
                    ProblemInstance(idle, base.capacity, base.dmax, policy),
                ]
                for p in placements:
                    for inst in instances:
                        for mutant in [*_mutants(tree, p), *_more_mutants(tree, p)]:
                            yield inst, mutant

    def _samples(self, tree):
        clients = tree.clients
        yield None
        yield clients
        yield clients[::3]
        yield clients[::-2]
        yield ()

    def test_equal_to_oracle(self):
        seen = set()
        cases = 0
        for inst, p in self._cases():
            for sample in self._samples(inst.tree):
                got = list(iter_violations(inst, p, sample))
                assert got == list(oracle_violations(inst, p, sample)), (inst, p, sample)
                seen.update(rule for rule, _message in got)
                cases += 1
        assert seen == TestClientSample.RULES
        assert cases > 1000

    def test_demand_copy_reads_demands_from_the_tree(self):
        # A derived layout patches its demand columns; the checker must
        # agree with the oracle on the copy whatever the layout holds.
        base = build_scenario(sorted(FAMILIES)[0], size=14, capacity=10, seed=2)
        flat_tree(base.tree)
        clients = base.tree.clients
        copy_tree = base.tree.with_demands({clients[0]: base.tree.requests(clients[0]) + 3})
        assert copy_tree._flat is not None and copy_tree._flat.source >= 0
        copy = ProblemInstance(copy_tree, base.capacity, base.dmax, base.policy)
        for p in (single_gen(base), single_gen(copy)):
            for sample in self._samples(copy_tree):
                assert list(iter_violations(copy, p, sample)) == list(
                    oracle_violations(copy, p, sample)
                )
        assert placement_violations(copy, single_gen(base))

    def test_compiles_a_missing_layout(self, paper_example):
        tree = paper_example.tree
        assert tree._flat is None
        p = valid_placement(paper_example)
        assert list(iter_violations(paper_example, p)) == []
        assert tree._flat is not None
