"""Property suite for the consistent-hash ring.

The satellites this file pins:

* routing is a pure function of membership — identical across
  processes and machines (golden blake2b values guard against silent
  hash changes);
* with :data:`~repro.cluster.ring.DEFAULT_VNODES` virtual nodes the key
  distribution stays within 2x of uniform;
* adding or removing one worker remaps at most ``2/N`` of a 1000-key
  sample (the minimal-remap contract the failover and rejoin logic
  relies on).
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster import DEFAULT_VNODES, HashRing, ring_point

KEYS_1K = [f"key-{i:04d}" for i in range(1000)]


def _workers(n: int) -> list:
    return [f"worker-{i}" for i in range(n)]


class TestRingPoint:
    def test_golden_values_pin_cross_process_stability(self):
        # blake2b of the label, 8-byte digest, big-endian — if any of
        # these move, every deployed router and load generator would
        # disagree with this build.  Update only with a migration plan.
        assert ring_point("worker-0#0") == 0x08BD46191A68A1E4
        assert ring_point("worker-1#0") == 0x1ED61518B754A610
        assert ring_point("") == 0xE4A6A0577479B2B4
        assert ring_point("a") == 0x40F89E395B66422F

    @given(st.text(max_size=64))
    def test_pure_function_of_content(self, label):
        assert ring_point(label) == ring_point(label)
        assert 0 <= ring_point(label) < (1 << 64)


class TestDeterminism:
    @given(
        st.integers(min_value=1, max_value=8),
        st.lists(st.text(min_size=1, max_size=32), min_size=1, max_size=40),
    )
    def test_two_rings_same_membership_agree(self, n, keys):
        # The router and the load generator each build their own
        # ring; every routing decision must coincide.
        a = HashRing(_workers(n))
        b = HashRing(reversed(_workers(n)))  # insertion order is irrelevant
        for key in keys:
            assert a.route(key) == b.route(key)
            assert a.successors(key) == b.successors(key)

    @given(st.integers(min_value=2, max_value=8))
    def test_successor_head_is_route(self, n):
        ring = HashRing(_workers(n))
        for key in KEYS_1K[:100]:
            succ = ring.successors(key)
            assert succ[0] == ring.route(key)
            assert len(succ) == len(set(succ)) == n

    def test_empty_ring_raises_and_yields_no_successors(self):
        ring = HashRing()
        with pytest.raises(LookupError):
            ring.route("anything")
        assert ring.successors("anything") == []

    def test_membership_ops_idempotent(self):
        ring = HashRing(_workers(3))
        before = [ring.route(k) for k in KEYS_1K[:50]]
        ring.add("worker-1")        # already a member
        ring.remove("worker-99")    # never a member
        assert [ring.route(k) for k in KEYS_1K[:50]] == before

    def test_vnodes_must_be_positive(self):
        with pytest.raises(ValueError):
            HashRing(vnodes=0)


class TestBalance:
    @given(st.integers(min_value=2, max_value=8))
    def test_key_distribution_within_2x_of_uniform(self, n):
        ring = HashRing(_workers(n), vnodes=DEFAULT_VNODES)
        counts = {w: 0 for w in _workers(n)}
        for key in KEYS_1K:
            counts[ring.route(key)] += 1
        uniform = len(KEYS_1K) / n
        assert max(counts.values()) <= 2.0 * uniform, counts

    @given(st.integers(min_value=1, max_value=8))
    def test_ownership_sums_to_one(self, n):
        ring = HashRing(_workers(n), vnodes=DEFAULT_VNODES)
        shares = ring.ownership()
        assert set(shares) == set(_workers(n))
        assert sum(shares.values()) == pytest.approx(1.0)
        assert all(s > 0 for s in shares.values())

    def test_ownership_tracks_sampled_distribution(self):
        ring = HashRing(_workers(4))
        counts = {w: 0 for w in _workers(4)}
        for key in KEYS_1K:
            counts[ring.route(key)] += 1
        for worker, share in ring.ownership().items():
            assert counts[worker] / len(KEYS_1K) == pytest.approx(
                share, abs=0.05
            )


class TestMinimalRemap:
    @given(st.integers(min_value=2, max_value=8))
    def test_adding_one_worker_remaps_at_most_2_over_n(self, n):
        ring = HashRing(_workers(n))
        before = {k: ring.route(k) for k in KEYS_1K}
        ring.add(f"worker-{n}")
        moved = sum(1 for k in KEYS_1K if ring.route(k) != before[k])
        # Expected 1/(n+1); 2/(n+1) allows hash-placement variance.
        assert moved <= 2 * len(KEYS_1K) / (n + 1), moved
        # Every key that moved now belongs to the newcomer.
        for k in KEYS_1K:
            if ring.route(k) != before[k]:
                assert ring.route(k) == f"worker-{n}"

    @given(st.integers(min_value=3, max_value=8))
    def test_removing_one_worker_remaps_only_its_keys(self, n):
        ring = HashRing(_workers(n))
        before = {k: ring.route(k) for k in KEYS_1K}
        victim = "worker-1"
        ring.remove(victim)
        moved = 0
        for k in KEYS_1K:
            after = ring.route(k)
            if before[k] == victim:
                assert after != victim
            else:
                assert after == before[k]  # survivors keep everything
            if after != before[k]:
                moved += 1
        assert moved <= 2 * len(KEYS_1K) / n, moved

    @given(st.integers(min_value=2, max_value=8))
    def test_leave_then_rejoin_restores_routing(self, n):
        ring = HashRing(_workers(n))
        before = {k: ring.route(k) for k in KEYS_1K[:200]}
        ring.remove("worker-0")
        ring.add("worker-0")
        assert {k: ring.route(k) for k in KEYS_1K[:200]} == before

    def test_failover_order_matches_post_removal_routing(self):
        # successors[1] must be where the key lands if successors[0]
        # leaves — the property the router's failover walk relies on.
        ring = HashRing(_workers(5))
        for key in KEYS_1K[:100]:
            first, second = ring.successors(key, limit=2)
            shrunk = HashRing([w for w in _workers(5) if w != first])
            assert shrunk.route(key) == second
