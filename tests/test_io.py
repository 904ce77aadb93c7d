"""Tests for serialization (repro.instances.io)."""

from __future__ import annotations

import hashlib
import json
import math
import random
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import InvalidInstanceError, Placement, Policy, ProblemInstance
from repro.algorithms import single_gen, single_nod
from repro.core.arrays import FlatTree
from repro.core.instance import _topology_columns, instance_fingerprint
from repro.core.tree import Tree
from repro.instances import (
    dump_instance,
    instance_from_dict,
    instance_to_dict,
    isp_mesh,
    load_instance,
    placement_from_dict,
    placement_to_dict,
    random_tree,
    to_dot,
)
from repro.instances import io
from repro.instances.io import (
    DECODED_TOPOLOGIES,
    RawJSON,
    canonical_json,
    placement_json,
)
from repro.service import SolveRequest
from repro.service.schema import WireFormatError


class TestInstanceRoundTrip:
    def test_round_trip(self, paper_example):
        data = instance_to_dict(paper_example)
        back = instance_from_dict(data)
        assert back.tree == paper_example.tree
        assert back.capacity == paper_example.capacity
        assert back.dmax == paper_example.dmax
        assert back.policy is paper_example.policy

    def test_round_trip_nod(self, paper_example):
        inst = paper_example.without_distance()
        back = instance_from_dict(instance_to_dict(inst))
        assert back.dmax is None

    def test_json_serialisable(self, paper_example):
        # inf deltas are mapped to null: plain json must accept it.
        s = json.dumps(instance_to_dict(paper_example))
        assert "Infinity" not in s

    def test_file_round_trip(self, tmp_path, paper_example):
        path = str(tmp_path / "inst.json")
        dump_instance(paper_example, path)
        assert load_instance(path).tree == paper_example.tree

    def test_bad_schema_rejected(self, paper_example):
        data = instance_to_dict(paper_example)
        data["schema"] = 999
        with pytest.raises(InvalidInstanceError):
            instance_from_dict(data)

    def test_policy_round_trip(self, paper_example):
        inst = paper_example.with_policy(Policy.MULTIPLE)
        back = instance_from_dict(instance_to_dict(inst))
        assert back.policy is Policy.MULTIPLE

    def test_random_instance_round_trip(self):
        inst = random_tree(6, 12, capacity=15, dmax=5.5, seed=9)
        back = instance_from_dict(instance_to_dict(inst))
        assert back.tree == inst.tree


class TestPlacementRoundTrip:
    def test_round_trip(self, paper_example):
        p = single_gen(paper_example)
        back = placement_from_dict(placement_to_dict(p))
        assert back == p

    def test_empty(self):
        p = Placement([], {})
        assert placement_from_dict(placement_to_dict(p)) == p


@pytest.fixture
def no_known_topology():
    """The decoder with no recently decoded topology, before and after."""
    with io._decoded_lock:
        io._decoded.clear()
    yield
    with io._decoded_lock:
        io._decoded.clear()


def _constructed(data: dict) -> ProblemInstance:
    """What the constructor builds (or raises) for an instance body."""
    tree = Tree(data["parents"], io._deltas_from_wire(data["deltas"]), data["requests"])
    return ProblemInstance(tree, data["capacity"], data["dmax"], Policy(data["policy"]))


def _raised(call, *args) -> Exception:
    with pytest.raises(Exception) as info:
        call(*args)
    return info.value


@pytest.mark.usefixtures("no_known_topology")
class TestKnownTopology:
    """A body whose topology was decoded recently is a demand copy of
    that tree, and decodes (or fails) as a fresh build would."""

    BASE = random_tree(6, 12, capacity=15, dmax=5.5, seed=9)

    def _variant(self, changes: dict) -> dict:
        """The base body with ``changes`` (node -> value) in its requests."""
        data = instance_to_dict(self.BASE)
        requests = list(data["requests"])
        for v, r in changes.items():
            requests[v] = r
        return dict(data, requests=requests)

    def test_second_decode_is_a_demand_copy(self):
        data = instance_to_dict(self.BASE)
        first = instance_from_dict(data)
        assert first == self.BASE
        assert first.tree._flat is not None and first.tree._flat.source == -1
        # The key's packed topology columns come with the tree.
        packed = _topology_columns(first.tree._parents, first.tree._deltas)
        assert first.tree._topology.key_columns == packed
        clients = self.BASE.tree.clients
        variant = self._variant({c: (i % 4) for i, c in enumerate(clients)})
        second = instance_from_dict(variant)
        fresh = _constructed(variant)
        assert second == fresh and second.tree.clients == fresh.tree.clients
        assert instance_fingerprint(second) == instance_fingerprint(fresh)
        assert second.tree._topology is first.tree._topology
        assert second.tree._flat.source == first.tree._flat.serial
        compiled = FlatTree(fresh.tree)
        assert second.tree._flat.demand == compiled.demand
        assert second.tree._flat.subtree_demand == compiled.subtree_demand
        # The same body again is another copy of the first tree.
        again = instance_from_dict(variant)
        assert again == fresh and again.tree._flat.source == first.tree._flat.serial
        assert len(io._decoded) == 1

    def test_float_and_bool_requests_convert_as_the_constructor_does(self):
        instance_from_dict(instance_to_dict(self.BASE))
        c0, c1 = self.BASE.tree.clients[:2]
        variant = self._variant({c0: 2.7, c1: True})
        assert instance_from_dict(variant) == _constructed(variant)

    def _corruptions(self):
        tree = self.BASE.tree
        clients = tree.clients
        internal = tree.internal_nodes[-1]
        late, early = max(clients), min(clients)
        yield self._variant({late: -1})
        yield self._variant({late: -1, early: -2})
        yield self._variant({internal: 2})
        yield self._variant({internal: -2, late: 3})
        yield self._variant({late: -1, internal: 3})
        yield self._variant({late: "x"})
        yield self._variant({late: None})
        yield self._variant({early: [1]})
        yield self._variant({early: -1, late: "x"})
        short = instance_to_dict(self.BASE)
        yield dict(short, requests=short["requests"][:-1])
        yield dict(short, requests=short["requests"] + [0])

    def test_invalid_requests_raise_as_the_constructor_does(self):
        instance_from_dict(instance_to_dict(self.BASE))
        for bad in self._corruptions():
            known = _raised(instance_from_dict, bad)
            fresh = _raised(_constructed, bad)
            assert (type(known), str(known)) == (type(fresh), str(fresh))
            assert len(io._decoded) == 1

    def test_the_400_text_matches_a_fresh_decode(self):
        body = SolveRequest(instance=self.BASE).to_wire()
        SolveRequest.from_wire(body)
        for bad in self._corruptions():
            wire = dict(body, instance=bad)
            known = _raised(SolveRequest.from_wire, wire)
            with io._decoded_lock:
                io._decoded.clear()
            fresh = _raised(SolveRequest.from_wire, wire)
            SolveRequest.from_wire(body)
            assert isinstance(known, WireFormatError)
            assert str(known) == str(fresh)
        late = max(self.BASE.tree.clients)
        message = str(_raised(SolveRequest.from_wire, dict(
            body, instance=self._variant({late: -1}))))
        assert f"node {late} has negative requests -1" in message

    def test_an_invalid_topology_is_not_kept(self):
        data = instance_to_dict(self.BASE)
        parents = list(data["parents"])
        parents[1] = 1
        with pytest.raises(Exception):
            instance_from_dict(dict(data, parents=parents))
        assert len(io._decoded) == 0

    def test_bounded_under_threads(self):
        bases = [random_tree(4, 8, capacity=10, seed=s) for s in range(12)]
        bodies = [instance_to_dict(b) for b in bases]
        assert len({(tuple(b["parents"]), tuple(map(str, b["deltas"]))) for b in bodies}) == 12
        errors = []
        sizes = []

        def decode(seed: int) -> None:
            rng = random.Random(seed)
            try:
                for _ in range(40):
                    k = rng.randrange(12)
                    requests = [
                        rng.randrange(5) if bases[k].tree.is_leaf(v) else 0
                        for v in range(len(bases[k].tree))
                    ]
                    variant = dict(bodies[k], requests=requests)
                    got = instance_from_dict(variant)
                    assert got == _constructed(variant)
                    assert instance_fingerprint(got) == instance_fingerprint(_constructed(variant))
                    sizes.append(len(io._decoded))
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        threads = [threading.Thread(target=decode, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(sizes) == 8 * 40
        assert max(sizes) <= DECODED_TOPOLOGIES
        assert len(io._decoded) == DECODED_TOPOLOGIES


class TestPlacementBytes:
    """``placement_json`` bytes, pinned from before the encoder wrote
    its lists straight from the sorted keys."""

    def test_twelve_node_placement(self):
        p = Placement(
            [11, 0, 4, 7, 2],
            {(9, 4): 3, (5, 0): 2, (10, 7): 1, (5, 4): 4, (3, 2): 6, (8, 7): 2,
             (6, 4): 1, (10, 0): 5, (1, 2): 2, (3, 0): 1},
        )
        assert placement_json(p) == (
            '{"assignments":[[1,2,2],[3,0,1],[3,2,6],[5,0,2],[5,4,4],[6,4,1],'
            '[8,7,2],[9,4,3],[10,0,5],[10,7,1]],"replicas":[0,2,4,7,11],"schema":1}'
        )

    def test_mesh_single_nod_placement(self):
        mesh = isp_mesh(6000, capacity=300, seed=3)
        text = placement_json(single_nod(mesh))
        assert len(text) == 98942
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "090e65018db58270b12fdf09b55333c9a7d4503d044d7fd91cc132a379a53e0a"
        )


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=24,
)


def _dumps(value: object, allow_nan: bool = False) -> str:
    """Canonical JSON as one :func:`json.dumps` call writes it."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), allow_nan=allow_nan
    )


class TestCanonicalJson:
    @given(value=json_values, rnd=st.randoms(use_true_random=False))
    def test_spliced_value_encodes_as_the_decoded_value(self, value, rnd):
        def pre_encode(v):
            if rnd.random() < 0.3:
                return RawJSON(_dumps(v))
            if isinstance(v, dict):
                return {k: pre_encode(x) for k, x in v.items()}
            if isinstance(v, list):
                return [pre_encode(x) for x in v]
            return v

        assert canonical_json(value) == _dumps(value)
        assert canonical_json(pre_encode(value)) == _dumps(value)

    def test_non_finite_floats(self):
        for value, text in (
            ({"a": RawJSON("[1]"), "b": math.nan}, '{"a":[1],"b":NaN}'),
            ({"b": math.inf}, '{"b":Infinity}'),
        ):
            with pytest.raises(ValueError):
                canonical_json(value)
            assert canonical_json(value, allow_nan=True) == text

    def test_unencodable_values_raise_type_error(self):
        for value in (
            {"a": RawJSON("1"), "b": {1, 2}},
            [RawJSON("1"), object()],
            {"b": {1, 2}},
        ):
            with pytest.raises(TypeError):
                canonical_json(value)

    def test_placement_json_is_computed_once(self, paper_example):
        placement = single_gen(paper_example)
        text = placement_json(placement)
        assert text == canonical_json(placement_to_dict(placement))
        assert placement_json(placement) is text


class TestDot:
    def test_contains_all_nodes_and_edges(self, paper_example):
        dot = to_dot(paper_example)
        assert dot.startswith("digraph")
        t = paper_example.tree
        for v in range(len(t)):
            assert f"\n  {v} [" in dot
        assert dot.count("->") == len(t) - 1

    def test_replicas_double_circled(self, paper_example):
        p = single_gen(paper_example)
        dot = to_dot(paper_example, p)
        assert "peripheries=2" in dot
