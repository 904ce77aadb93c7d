"""LRU cache and fingerprinting tests (repro.service.cache/fingerprint)."""

from __future__ import annotations

import copy
import json
import math
import threading

import pytest

from repro import Policy, ProblemInstance, Tree
from repro.cluster import MIXES
from repro.core import instance_fingerprint as core_instance_fingerprint
from repro.core.instance import fingerprint_columns
from repro.instances import (
    instance_from_dict,
    instance_to_dict,
    isp_mesh,
    make_instance,
    random_tree,
)
from repro.instances.io import instance_fingerprint_from_dict
from repro.scenarios import build_scenario, family_names
from repro.service import (
    ResultCache,
    SolveRequest,
    instance_fingerprint,
    request_fingerprint,
)
from tests.test_service_wire import TWINS, twin_bodies


class TestResultCache:
    def test_miss_then_hit(self):
        c = ResultCache(max_entries=2)
        assert c.get("a") is None
        c.put("a", 1)
        assert c.get("a") == 1
        s = c.stats()
        assert (s.hits, s.misses, s.size) == (1, 1, 1)

    def test_an_uncounted_miss_counts_only_when_noted(self):
        c = ResultCache(max_entries=2)
        c.put("a", 1)
        assert c.get("b", count_miss=False) is None
        assert (c.stats().hits, c.stats().misses) == (0, 0)
        c.note_miss()
        assert c.get("a", count_miss=False) == 1
        assert (c.stats().hits, c.stats().misses) == (1, 1)

    def test_lru_eviction_order(self):
        c = ResultCache(max_entries=2)
        c.put("a", 1)
        c.put("b", 2)
        c.get("a")          # promote a; b is now LRU
        c.put("c", 3)       # evicts b
        assert c.get("b") is None
        assert c.get("a") == 1
        assert c.get("c") == 3
        assert c.stats().evictions == 1

    def test_put_refreshes_recency(self):
        c = ResultCache(max_entries=2)
        c.put("a", 1)
        c.put("b", 2)
        c.put("a", 10)      # refresh value and recency
        c.put("c", 3)       # evicts b, not a
        assert c.get("a") == 10
        assert c.get("b") is None

    def test_zero_size_disables_caching(self):
        c = ResultCache(max_entries=0)
        c.put("a", 1)
        assert c.get("a") is None
        assert len(c) == 0

    def test_hit_rate(self):
        c = ResultCache(max_entries=4)
        assert c.stats().hit_rate == 0.0
        c.put("a", 1)
        c.get("a")
        c.get("nope")
        assert c.stats().hit_rate == 0.5

    def test_thread_safety_under_contention(self):
        c = ResultCache(max_entries=16)
        errors = []

        def worker(i: int) -> None:
            try:
                for k in range(200):
                    key = f"k{(i + k) % 32}"
                    c.put(key, i)
                    c.get(key)
            except Exception as exc:  # noqa: BLE001 — collecting for assert
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(c) <= 16


class TestFingerprints:
    def test_stable_across_equal_instances(self):
        a = random_tree(6, 12, capacity=15, dmax=5.0, seed=9)
        b = instance_from_dict(instance_to_dict(a))  # round-tripped copy
        assert a == b
        assert instance_fingerprint(a) == instance_fingerprint(b)

    def test_name_does_not_participate(self):
        from repro import ProblemInstance

        a = random_tree(6, 12, capacity=15, dmax=5.0, seed=9)
        renamed = ProblemInstance(
            a.tree, a.capacity, a.dmax, a.policy, name="renamed"
        )
        assert instance_fingerprint(a) == instance_fingerprint(renamed)

    def test_numeric_type_does_not_participate(self):
        # dmax=5 and dmax=5.0 compare equal, and so do -0.0 and 0.0
        # as a delta or as dmax; content addressing must not split
        # them into two cache slots.
        a = random_tree(6, 12, capacity=15, dmax=5.0, seed=9)
        pairs = [(a, ProblemInstance(a.tree, int(a.capacity), 5, a.policy))]
        zero = Tree([-1, 0, 0], [0, 0.0, 1], [0, 3, 4])
        negative_zero = Tree([-1, 0, 0], [0, -0.0, 1], [0, 3, 4])
        pairs.append(
            (ProblemInstance(zero, 5), ProblemInstance(negative_zero, 5))
        )
        pairs.append(
            (ProblemInstance(zero, 5, 0.0), ProblemInstance(zero, 5, -0.0))
        )
        for x, y in pairs:
            assert x == y
            assert instance_fingerprint(x) == instance_fingerprint(y)

    def test_golden_values_pin_the_key(self):
        # blake2b-256 over the packed columns, little-endian.  If these
        # move, every cache key, WAL record and routing decision of a
        # deployed build stops matching this one: update them only
        # together with an upgrade note in docs/durability.md.
        assert instance_fingerprint is core_instance_fingerprint
        plain = ProblemInstance(
            Tree([-1, 0, 0, 1], [0, 2.0, 1.5, 0.5], [0, 0, 4, 7]), 10
        )
        assert instance_fingerprint(plain) == (
            "cace89dc3e1312b38c173171e6f2ef0200c8e8d3b5d89ce523c3c9161c76f0b3"
        )
        down = ProblemInstance(
            Tree([-1, 0, 0, 1, 1], [0, 1.0, 3.0, 2.0, 0.25], [0, 0, 5, 6, 9]),
            12,
            3.5,
            Policy.MULTIPLE,
        )
        assert instance_fingerprint(down, frozenset({1, 0})) == (
            "574d7ef219dcc39c88e200ad90dbaa498749348accf9aa2619ddfb934e8e8026"
        )

    def test_wire_key_matches_instance_fingerprint(self):
        # The cluster router keys the parsed JSON body without building
        # the instance; it must agree with the workers' key.
        instances = [
            make_instance(spec)
            for mix in ("quick", "default")
            for spec in MIXES[mix]
        ]
        instances += [build_scenario(family) for family in family_names()]
        for inst in instances:
            wire = json.loads(json.dumps(SolveRequest(instance=inst).to_wire()))
            assert instance_fingerprint_from_dict(
                wire["instance"]
            ) == instance_fingerprint(inst)

    def test_content_changes_change_fingerprint(self):
        a = random_tree(6, 12, capacity=15, dmax=5.0, seed=9)
        assert instance_fingerprint(a) != instance_fingerprint(
            a.without_distance()
        )
        assert instance_fingerprint(a) != instance_fingerprint(
            random_tree(6, 12, capacity=15, dmax=5.0, seed=10)
        )

    def test_request_fingerprint_mixes_solver_and_budget(self):
        a = random_tree(6, 12, capacity=15, dmax=5.0, seed=9)
        base = request_fingerprint(a)
        assert request_fingerprint(a) == base
        assert request_fingerprint(a, solver="single-gen") != base
        assert request_fingerprint(a, budget=100) != base
        assert request_fingerprint(a, solver="single-gen") != request_fingerprint(
            a, solver="local"
        )


class TestWireKeyStrictness:
    """``instance_fingerprint_from_dict`` refuses what the decoder refuses
    whenever the columns would otherwise pack like a valid instance."""

    @staticmethod
    def _wire(**changes) -> dict:
        wire = instance_to_dict(isp_mesh(20, capacity=150, seed=3))
        wire.update(changes)
        return json.loads(json.dumps(wire))

    def test_instance_schema_other_than_1_raises(self):
        for schema in (2, None, "1"):
            with pytest.raises(ValueError, match="schema"):
                instance_fingerprint_from_dict(self._wire(schema=schema))
        del_schema = self._wire()
        del del_schema["schema"]
        with pytest.raises(ValueError, match="schema"):
            instance_fingerprint_from_dict(del_schema)

    def test_string_dmax_raises(self):
        with pytest.raises(ValueError, match="dmax"):
            instance_fingerprint_from_dict(self._wire(dmax="5"))

    def test_unequal_columns_raise(self):
        wire = self._wire()
        for column in ("parents", "deltas", "requests"):
            short = copy.deepcopy(wire)
            short[column].pop()
            with pytest.raises(ValueError, match="same length"):
                instance_fingerprint_from_dict(short)

    def test_the_shifted_delta_pair_no_longer_collides(self):
        # 31 deltas and 33 requests on a 32-node tree packed into the
        # bytes of a valid instance whose last delta starts with b"r".
        [case] = [t for t in TWINS if t.id == "unequal-columns"]
        good, bad = twin_bodies(case)
        valid, shifted = good["instance"], bad["instance"]
        key = instance_fingerprint(instance_from_dict(valid))
        assert instance_fingerprint_from_dict(valid) == key
        # The columns alone pack to the valid instance's key ...
        assert fingerprint_columns(
            shifted["parents"],
            [math.inf] + shifted["deltas"][1:],
            shifted["requests"],
            shifted["capacity"],
            shifted["dmax"],
            shifted["policy"],
        ) == key
        # ... so the wire key refuses them, as the decoder does.
        with pytest.raises(ValueError, match="same length"):
            instance_fingerprint_from_dict(shifted)

    def test_accepted_variants_key_as_the_decoded_instance(self):
        # Bodies the decoder accepts in another spelling: where they
        # pack, they key as the instance they decode to.
        huge = self._wire()
        huge["requests"][-1] = 10**20
        variants = [
            self._wire(capacity="150"),
            self._wire(capacity=150.0),
            self._wire(dmax=5),
            self._wire(dmax=True),
            self._wire(schema=1.0),
            huge,
        ]
        boolean = self._wire()
        boolean["requests"][-1] = True
        variants.append(boolean)
        for wire in variants:
            assert instance_fingerprint_from_dict(wire) == instance_fingerprint(
                instance_from_dict(wire)
            )

    def test_float_demand_beyond_int64_does_not_key(self):
        # The decimal fallback takes integers only: 3.0 would key as
        # text "3.0", not as the 3 it decodes to.
        wire = self._wire()
        wire["requests"][-2] = 10**20
        wire["requests"][-1] = float(wire["requests"][-1])
        assert instance_from_dict(wire).tree.requests(len(wire["requests"]) - 1) > 0
        with pytest.raises(TypeError):
            instance_fingerprint_from_dict(wire)
