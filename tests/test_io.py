"""Tests for serialization (repro.instances.io)."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import InvalidInstanceError, Placement, Policy
from repro.algorithms import single_gen
from repro.instances import (
    dump_instance,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    placement_from_dict,
    placement_to_dict,
    random_tree,
    to_dot,
)
from repro.instances.io import RawJSON, canonical_json, placement_json


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
