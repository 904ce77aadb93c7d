"""Service-layer dynamic sessions: apply_events and the result cache.

Regression coverage for the contract in
:meth:`repro.service.PlacementService.apply_events`: a cache entry is
keyed by its instance's content, so mutating a session's instance
leaves every entry correct and in place, and a pure-incremental repair
seeds the cache under the mutated instance's key.
"""

from __future__ import annotations

import hashlib
import sys

import pytest

import repro.replay.runner  # noqa: F401 - loaded before the keys are counted
from repro import Policy
from repro.core import instance as instance_module
from repro.core.instance import instance_fingerprint
from repro.dynamic import CapacityEvent, DemandEvent, DynamicPlacement, FailureEvent
from repro.instances import random_tree
from repro.instances.io import canonical_json, instance_to_dict
from repro.service import (
    PlacementService,
    SolveRequest,
    UnknownSessionError,
    combine_fingerprint,
)
from repro.storage import CachePut, SessionStart, StateStore


@pytest.fixture
def multiple_instance():
    return random_tree(8, 16, capacity=6, dmax=None, seed=7).with_policy(
        Policy.MULTIPLE
    )


def _bump_leaf_event(instance):
    c = sorted(instance.tree.clients)[0]
    return DemandEvent(c, (instance.tree.requests(c) + 1) % instance.capacity)


def count_keys(monkeypatch):
    """Count ``instance_fingerprint`` calls: patch it in every loaded
    ``repro`` module that holds it; returns the list of call args."""
    real = instance_module.instance_fingerprint
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "repro" and (
            getattr(module, "instance_fingerprint", None) is real
        ):
            monkeypatch.setattr(module, "instance_fingerprint", counting)
    return calls


class TestDynamicSessions:
    def test_start_apply_and_introspect(self, multiple_instance):
        with PlacementService() as svc:
            sid = svc.start_dynamic(multiple_instance)
            engine = svc.dynamic_session(sid)
            assert engine.placement is not None
            outcome = svc.apply_events(
                sid, [_bump_leaf_event(multiple_instance)]
            )
            assert outcome.ok and outcome.mode == "incremental"

    def test_fresh_services_mint_distinct_ids_for_one_instance(
        self, multiple_instance
    ):
        # Two workers that both open the same instance (a router
        # failover of /v1/dynamic/start) must not mint the same id,
        # or the router would alias the two clients' sessions.
        with PlacementService() as a, PlacementService() as b:
            first = a.start_dynamic(multiple_instance)
            second = b.start_dynamic(multiple_instance)
        assert first != second

    def test_unknown_session_raises(self, multiple_instance):
        with PlacementService() as svc:
            with pytest.raises(UnknownSessionError):
                svc.apply_events("nope", [])
            with pytest.raises(UnknownSessionError):
                svc.dynamic_session("nope")

    def test_close_dynamic_is_idempotent(self, multiple_instance):
        with PlacementService() as svc:
            sid = svc.start_dynamic(multiple_instance)
            svc.close_dynamic(sid)
            svc.close_dynamic(sid)
            with pytest.raises(UnknownSessionError):
                svc.dynamic_session(sid)


class TestCacheInvalidation:
    """What apply_events does to the cache: it seeds, and invalidates
    nothing."""

    @pytest.mark.parametrize("kind", ["demand", "capacity"])
    @pytest.mark.parametrize("where", ["memory", "restarted"])
    def test_pre_event_entry_still_hits(
        self, tmp_path, multiple_instance, where, kind
    ):
        # The session's instance *is* the cached content, mutated; the
        # entry keyed by the pre-event content still answers that
        # content, live and after a restart replays the events.
        event = (
            _bump_leaf_event(multiple_instance)
            if kind == "demand"
            else CapacityEvent(multiple_instance.capacity + 1)
        )
        store = StateStore(str(tmp_path), fsync=False) if where == "restarted" else None
        svc = PlacementService(store=store)
        first = svc.solve_instance(multiple_instance, "multiple-nod-dp")
        assert first.ok and not first.diagnostics.cache_hit
        sid = svc.start_dynamic(multiple_instance)
        assert svc.apply_events(sid, [event]).ok
        if store is not None:
            svc.close()  # crash-equivalent: the restart replays the log
            svc = PlacementService(store=StateStore(str(tmp_path), fsync=False))
            assert svc.stats().durability.records_replayed == 3
        with svc:
            again = svc.solve_instance(multiple_instance, "multiple-nod-dp")
        assert again.diagnostics.cache_hit
        assert again.n_replicas == first.n_replicas
        assert again.placement == first.placement

    def test_incremental_repair_seeds_new_fingerprint(self, multiple_instance):
        with PlacementService() as svc:
            sid = svc.start_dynamic(multiple_instance)
            outcome = svc.apply_events(
                sid, [_bump_leaf_event(multiple_instance)]
            )
            assert outcome.ok and outcome.mode == "incremental"
            mutated = svc.dynamic_session(sid).instance
            seeded = svc.solve_instance(mutated, "multiple-nod-dp")
            assert seeded.diagnostics.cache_hit
            assert seeded.n_replicas == outcome.cost
            assert seeded.diagnostics.selection == "dynamic"

    def test_auto_solver_requests_hit_seeded_entry(self, multiple_instance):
        # Auto-selection picks multiple-nod-dp for this (non-binary)
        # Multiple-NoD instance, so the solver=None key must be seeded
        # too — the common follow-up path is an auto solve.
        assert multiple_instance.tree.arity > 2
        with PlacementService() as svc:
            sid = svc.start_dynamic(multiple_instance)
            outcome = svc.apply_events(
                sid, [_bump_leaf_event(multiple_instance)]
            )
            assert outcome.mode == "incremental"
            mutated = svc.dynamic_session(sid).instance
            auto = svc.solve_instance(mutated)  # no solver named
            assert auto.diagnostics.cache_hit
            assert auto.solver == "multiple-nod-dp"
            assert auto.n_replicas == outcome.cost

    def test_failed_host_states_are_not_seeded(self, multiple_instance):
        with PlacementService() as svc:
            sid = svc.start_dynamic(multiple_instance)
            victim = multiple_instance.tree.internal_nodes[1]
            outcome = svc.apply_events(sid, [FailureEvent(victim)])
            assert outcome.ok
            # A plain solve of the mutated instance would not know about
            # the failure, so its answer must be computed, not seeded.
            mutated = svc.dynamic_session(sid).instance
            resp = svc.solve_instance(mutated, "multiple-nod-dp")
            assert not resp.diagnostics.cache_hit

    def test_unrelated_instance_entries_survive(self, multiple_instance):
        other = random_tree(6, 12, capacity=8, dmax=None, seed=42).with_policy(
            Policy.MULTIPLE
        )
        with PlacementService() as svc:
            svc.solve_instance(other, "multiple-nod-dp")
            sid = svc.start_dynamic(multiple_instance)
            svc.apply_events(sid, [_bump_leaf_event(multiple_instance)])
            kept = svc.solve_instance(other, "multiple-nod-dp")
            assert kept.diagnostics.cache_hit

    def test_one_content_key_per_apply(self, multiple_instance, monkeypatch):
        # With no failed host the engine's outcome.fingerprint is the
        # mutated instance's content key, and the service seeds the
        # cache under it: one instance_fingerprint per apply, the
        # session's first included.
        calls = count_keys(monkeypatch)
        client = sorted(multiple_instance.tree.clients)[0]
        with PlacementService() as svc:
            sid = svc.start_dynamic(multiple_instance)
            for level in (1, 2, 3, 2):
                del calls[:]
                outcome = svc.apply_events(sid, [DemandEvent(client, level)])
                assert outcome.ok and len(calls) == 1
            mutated = svc.dynamic_session(sid).instance
            assert svc.solve_instance(mutated, "multiple-nod-dp").diagnostics.cache_hit


def _batches(instance):
    """One batch per kind of outcome, each changing the engine's state
    (but the rejected one), and a follow-up batch that changes it."""
    tree = instance.tree
    client, other = sorted(tree.clients)[:2]
    internal = tree.internal_nodes[1]
    return {
        "ok": [DemandEvent(client, 3)],
        # An internal node carries no requests: the whole batch is
        # rejected and the snapshot stays as it was.
        "rejected": [DemandEvent(client, 3), DemandEvent(internal, 1)],
        "failed-host": [FailureEvent(internal)],
        # More than the whole tree can hold: the repair fails.
        "failed-repair": [DemandEvent(client, instance.capacity * len(tree))],
    }, [DemandEvent(other, 5)]


class TestApplyContentKey:
    """An apply computes no content key; its outcome keys its own
    snapshot on first read, even after later applies."""

    def test_apply_computes_no_key(self, multiple_instance, monkeypatch):
        engine = DynamicPlacement(multiple_instance)
        calls = count_keys(monkeypatch)
        batches, follow_up = _batches(multiple_instance)
        outcomes = [engine.apply(b) for b in (*batches.values(), follow_up)]
        assert [o.ok for o in outcomes] == [True, False, True, False, False]
        assert engine.failed_hosts
        assert calls == []

    def test_replay_keys_only_its_input(self, monkeypatch):
        from repro.replay import run_replay

        instance = random_tree(10, 24, capacity=30, dmax=None, seed=3)
        calls = count_keys(monkeypatch)
        result = run_replay(instance, "diurnal+flash", horizon=6, seed=1)
        assert len(result.rows) == 6 and result.checks_run
        # The run names its input instance; no tick adds a key.
        assert [args[0] for args in calls] == [instance]

    @pytest.mark.parametrize(
        "kind", ["ok", "rejected", "failed-host", "failed-repair"]
    )
    def test_outcome_keys_its_own_apply(self, multiple_instance, kind):
        engine = DynamicPlacement(multiple_instance)
        batches, follow_up = _batches(multiple_instance)
        first = engine.apply(batches[kind])
        assert first.ok == (kind in ("ok", "failed-host"))
        state = engine.instance, engine.failed_hosts
        if kind == "rejected":
            assert state == (multiple_instance, frozenset())
        engine.apply(follow_up)
        # Read only now, after a second apply changed the engine.
        assert first.fingerprint == instance_fingerprint(*state)
        assert first.fingerprint != engine.fingerprint()

    def test_service_apply_keys_its_own_state(self, multiple_instance):
        batches, follow_up = _batches(multiple_instance)
        with PlacementService() as svc:
            sid = svc.start_dynamic(multiple_instance)
            engine = svc.dynamic_session(sid)
            applied = [
                (svc.apply_events(sid, batch), engine.instance, engine.failed_hosts)
                for batch in (*batches.values(), follow_up)
            ]
        for outcome, instance, failed in applied:
            assert outcome.fingerprint == instance_fingerprint(instance, failed)


class TestStateFromBeforeTheContentKey:
    """A data dir written when instance keys were SHA-256 over
    canonical JSON: cache records carry no instance and never match
    again, sessions carry theirs and keep working."""

    @pytest.mark.parametrize("form", ["wal", "snapshot"])
    def test_old_data_dir_recovers(self, tmp_path, multiple_instance, form):
        cached = random_tree(5, 10, capacity=12, dmax=5.0, seed=2)
        payload = instance_to_dict(cached)
        payload.pop("name")
        old_fp = hashlib.sha256(canonical_json(payload).encode()).hexdigest()
        old_key = combine_fingerprint(old_fp)
        with PlacementService() as svc:
            response = svc.solve(SolveRequest(instance=cached)).to_wire()
        sid = "dyn-1-26dca1a3"
        wire = instance_to_dict(multiple_instance)

        store = StateStore(str(tmp_path), fsync=False)
        store.recover()
        if form == "wal":
            store.append(
                CachePut(key=old_key, instance_fp=old_fp, response=response)
            )
            store.append(SessionStart(session_id=sid, instance=wire))
        else:
            store.snapshot_now(lambda: {
                "schema": 1,
                "session_seq": 1,
                "sessions": {sid: {"instance": wire, "solver": None, "failed": []}},
                "cache": [
                    {"key": old_key, "instance_fp": old_fp, "response": response}
                ],
            })
        store.close()

        with PlacementService(store=StateStore(str(tmp_path), fsync=False)) as svc:
            assert [s["session_id"] for s in svc.dynamic_sessions()] == [sid]
            assert svc.apply_events(sid, [_bump_leaf_event(multiple_instance)]).ok
            first = svc.solve(SolveRequest(instance=cached))
            second = svc.solve(SolveRequest(instance=cached))
        assert not first.diagnostics.cache_hit
        assert second.diagnostics.cache_hit
        assert first.n_replicas == response["n_replicas"]
