"""Kill-and-replay: recovered service state equals the never-killed state.

The correctness property of the storage subsystem (``docs/durability.md``):
for a randomized trace of service operations and an *arbitrary* crash
point — any byte-level truncation of the write-ahead log, including
mid-record torn writes — recovering from disk reproduces exactly the
in-memory state the live service had after the last surviving record.
Equality is judged by :meth:`PlacementService.state_fingerprint`, which
hashes sessions (via the dynamic engine's blake2b Merkle fingerprints),
standing placements and the semantic cache content.

The live run records ``fps[seq]`` — the fingerprint after record ``seq``
was applied — so the oracle for a crash that preserves records ``1..k``
(plus a snapshot at ``s``) is simply ``fps[max(s, k)]``.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dynamic import CapacityEvent, DemandEvent, FailureEvent
from repro.instances.generators import random_tree
from repro.service import PlacementService, UnknownSessionError
from repro.storage import (
    RecoveryError,
    SessionEvents,
    SessionStart,
    StateStore,
    list_snapshots,
    scan_wal,
)

# Two small, fast instances the ops traces draw from.  Module-level so
# hypothesis examples do not pay generation time per run.
INSTANCES = [
    random_tree(3, 6, capacity=6, seed=11),
    random_tree(2, 5, capacity=8, seed=23),
]


# -- operation traces ---------------------------------------------------
# One op maps to at most one WAL record, so the live fingerprint series
# indexed by the store's last_seq is total: every seq has an oracle.

_EVENT_SPECS = st.one_of(
    st.tuples(st.just("demand"), st.integers(0, 7), st.integers(0, 6)),
    st.tuples(st.just("fail"), st.integers(0, 7)),
    st.tuples(st.just("capacity"), st.integers(1, 12)),
)


@st.composite
def op_traces(draw):
    n_ops = draw(st.integers(2, 9))
    ops = []
    n_sessions = 0
    for _ in range(n_ops):
        kind = draw(
            st.sampled_from(["solve", "start", "events", "events", "close"])
        )
        if kind == "solve":
            ops.append(("solve", draw(st.integers(0, len(INSTANCES) - 1))))
        elif kind == "start":
            ops.append(("start", draw(st.integers(0, len(INSTANCES) - 1))))
            n_sessions += 1
        elif n_sessions == 0:
            ops.append(("solve", draw(st.integers(0, len(INSTANCES) - 1))))
        elif kind == "events":
            batch = draw(st.lists(_EVENT_SPECS, min_size=1, max_size=3))
            ops.append(("events", draw(st.integers(0, n_sessions - 1)), batch))
        else:
            ops.append(("close", draw(st.integers(0, n_sessions - 1))))
    return ops


def _materialise_events(engine, specs):
    """Bind drawn event specs to the engine's *current* topology."""
    tree = engine.instance.tree
    clients = sorted(tree.clients)
    events = []
    for spec in specs:
        if spec[0] == "demand":
            events.append(
                DemandEvent(clients[spec[1] % len(clients)], spec[2])
            )
        elif spec[0] == "fail":
            # Never the root: a failed root is a modelling degeneracy,
            # not a persistence behaviour worth exercising here.
            events.append(FailureEvent(1 + spec[1] % (len(tree) - 1)))
        else:
            events.append(CapacityEvent(spec[1]))
    return events


def _perform(service, sessions, closed, op) -> None:
    if op[0] == "solve":
        service.solve_instance(INSTANCES[op[1]])
    elif op[0] == "start":
        sessions.append(service.start_dynamic(INSTANCES[op[1]]))
    elif op[0] == "events":
        sid = sessions[op[1]]
        if sid in closed:
            return
        engine = service.dynamic_session(sid)
        service.apply_events(sid, _materialise_events(engine, op[2]))
    else:  # close
        sid = sessions[op[1]]
        service.close_dynamic(sid)
        closed.add(sid)


def _run_live(data_dir: str, ops, snapshot_interval: int) -> dict:
    """Run the trace against a durable service; fingerprint per seq."""
    service = PlacementService(
        cache_size=512,
        store=StateStore(
            data_dir, snapshot_interval=snapshot_interval, fsync=False
        ),
    )
    fps = {0: service.state_fingerprint()}
    sessions, closed = [], set()
    for op in ops:
        _perform(service, sessions, closed, op)
        fps[service.stats().durability.last_seq] = service.state_fingerprint()
    # close() releases file handles WITHOUT a snapshot — deliberately
    # crash-equivalent, so recovery always runs the replay path.
    service.close()
    return fps


def _crash_copy(data_dir: str, cut_frac: float) -> str:
    """Copy the data dir and truncate its WAL at an arbitrary byte."""
    crash_dir = data_dir + "-crash"
    shutil.copytree(data_dir, crash_dir)
    wal_path = os.path.join(crash_dir, StateStore.WAL_FILENAME)
    size = os.path.getsize(wal_path)
    cut = round(cut_frac * size)
    with open(wal_path, "r+b") as fh:
        fh.truncate(cut)
    return crash_dir


def _expected_last_seq(crash_dir: str) -> int:
    snaps = list_snapshots(crash_dir)
    snap_seq = snaps[0][0] if snaps else 0
    scan = scan_wal(os.path.join(crash_dir, StateStore.WAL_FILENAME))
    return max(snap_seq, scan.last_seq)


class TestKillAndReplay:
    """The property, at both extremes of the snapshot cadence."""

    @pytest.mark.parametrize("snapshot_interval", [0, 2])
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(ops=op_traces(), cut_frac=st.floats(0.0, 1.0))
    def test_recovery_equals_live_state(self, ops, cut_frac, snapshot_interval):
        # No tmp_path here: function-scoped fixtures are not reset
        # between hypothesis examples, so each example makes its own.
        base = tempfile.mkdtemp(prefix="repro-persist-")
        data_dir = os.path.join(base, "state")
        fps = _run_live(data_dir, ops, snapshot_interval)

        crash_dir = _crash_copy(data_dir, cut_frac)
        expected = _expected_last_seq(crash_dir)

        recovered = PlacementService(
            cache_size=512, store=StateStore(crash_dir, fsync=False)
        )
        try:
            assert recovered.stats().durability.last_seq == expected
            assert recovered.state_fingerprint() == fps[expected]
        finally:
            recovered.close()
            shutil.rmtree(base, ignore_errors=True)


class TestDeterministicCrashes:
    """Hand-picked crash shapes with exact expectations."""

    def _seeded_dir(self, tmp_path, snapshot_interval=0):
        data_dir = str(tmp_path / "state")
        ops = [
            ("solve", 0),
            ("start", 1),
            ("events", 0, [("demand", 2, 3), ("fail", 1)]),
            ("solve", 1),
            ("events", 0, [("capacity", 9)]),
        ]
        fps = _run_live(data_dir, ops, snapshot_interval)
        return data_dir, fps

    def test_graceful_restart_is_identical(self, tmp_path):
        data_dir, fps = self._seeded_dir(tmp_path)
        last = max(fps)
        service = PlacementService(
            cache_size=512, store=StateStore(data_dir, fsync=False)
        )
        service.persist_now()
        fp = service.state_fingerprint()
        service.close()
        assert fp == fps[last]

        again = PlacementService(
            cache_size=512, store=StateStore(data_dir, fsync=False)
        )
        status = again.stats().durability
        # A graceful shutdown restarts from the snapshot: nothing to
        # replay, same state.
        assert status.records_replayed == 0
        assert again.state_fingerprint() == fps[last]
        again.close()

    def test_flipped_byte_in_final_record_drops_only_it(self, tmp_path):
        data_dir, fps = self._seeded_dir(tmp_path)
        wal_path = os.path.join(data_dir, StateStore.WAL_FILENAME)
        size = os.path.getsize(wal_path)
        with open(wal_path, "r+b") as fh:
            fh.seek(size - 1)
            byte = fh.read(1)
            fh.seek(size - 1)
            fh.write(bytes([byte[0] ^ 0xFF]))

        last = max(fps)
        service = PlacementService(
            cache_size=512, store=StateStore(data_dir, fsync=False)
        )
        status = service.stats().durability
        assert status.torn_tail_recovered
        assert status.last_seq == last - 1
        assert service.state_fingerprint() == fps[last - 1]
        service.close()

    def test_cache_hits_survive_restart(self, tmp_path):
        data_dir = str(tmp_path / "state")
        service = PlacementService(
            store=StateStore(data_dir, fsync=False)
        )
        first = service.solve_instance(INSTANCES[0])
        assert not first.diagnostics.cache_hit
        service.close()

        again = PlacementService(store=StateStore(data_dir, fsync=False))
        hit = again.solve_instance(INSTANCES[0])
        assert hit.diagnostics.cache_hit
        assert hit.placement == first.placement
        assert hit.n_replicas == first.n_replicas
        again.close()

    def test_sessions_survive_restart_and_keep_accepting_events(
        self, tmp_path
    ):
        data_dir = str(tmp_path / "state")
        service = PlacementService(store=StateStore(data_dir, fsync=False))
        sid = service.start_dynamic(INSTANCES[0])
        engine = service.dynamic_session(sid)
        client = sorted(engine.instance.tree.clients)[0]
        service.apply_events(sid, [DemandEvent(client, 2)])
        live_fp = engine.fingerprint()
        service.close()

        again = PlacementService(store=StateStore(data_dir, fsync=False))
        recovered = again.dynamic_session(sid)
        assert recovered.fingerprint() == live_fp
        outcome = again.apply_events(sid, [DemandEvent(client, 4)])
        assert outcome.ok
        again.close()

    def test_session_counter_survives_replay(self, tmp_path):
        """Ids minted after recovery never collide with recovered ones."""
        data_dir = str(tmp_path / "state")
        service = PlacementService(store=StateStore(data_dir, fsync=False))
        first = service.start_dynamic(INSTANCES[0])
        service.close()

        again = PlacementService(store=StateStore(data_dir, fsync=False))
        second = again.start_dynamic(INSTANCES[1])
        assert first != second
        again.close()


class TestSessionRaces:
    """A session's log order is its apply order, so a restart rebuilds
    the live state even when two calls on one session race."""

    def _durable(self, tmp_path) -> PlacementService:
        return PlacementService(
            store=StateStore(str(tmp_path / "state"), fsync=False)
        )

    def _assert_restart_matches(self, tmp_path, live) -> None:
        want = live.state_fingerprint()
        live.close()
        with self._durable(tmp_path) as restarted:
            assert restarted.state_fingerprint() == want

    def test_apply_racing_a_close(self, tmp_path, monkeypatch):
        live = self._durable(tmp_path)
        sid = live.start_dynamic(INSTANCES[0])
        client = sorted(INSTANCES[0].tree.clients)[0]
        looked_up, resume = threading.Event(), threading.Event()
        lookup = live.dynamic_session

        def paused_lookup(session_id):
            engine = lookup(session_id)
            looked_up.set()
            assert resume.wait(timeout=10)
            return engine

        monkeypatch.setattr(live, "dynamic_session", paused_lookup)
        answers = []

        def apply():
            try:
                answers.append(live.apply_events(sid, [DemandEvent(client, 1)]))
            except UnknownSessionError as exc:
                answers.append(exc)

        applier = threading.Thread(target=apply)
        applier.start()
        assert looked_up.wait(timeout=10)
        live.close_dynamic(sid)  # wins: the apply has not logged yet
        resume.set()
        applier.join(timeout=10)
        # The apply finds its session closed: a 404 that logs nothing.
        assert [type(a) for a in answers] == [UnknownSessionError]
        assert live.stats().durability.records_appended == 2
        self._assert_restart_matches(tmp_path, live)

    def test_apply_racing_an_apply(self, tmp_path, monkeypatch):
        live = self._durable(tmp_path)
        sid = live.start_dynamic(INSTANCES[0])
        client = sorted(INSTANCES[0].tree.clients)[0]
        logged, resume = threading.Event(), threading.Event()
        log = live._log

        def paused_log(record):
            seq = log(record)
            if threading.current_thread().name == "first":
                logged.set()
                assert resume.wait(timeout=10)
            return seq

        monkeypatch.setattr(live, "_log", paused_log)

        def apply(level):
            return threading.Thread(
                target=live.apply_events,
                args=(sid, [DemandEvent(client, level)]),
                name="first" if level == 1 else "second",
            )

        first, second = apply(1), apply(5)
        first.start()
        assert logged.wait(timeout=10)  # level 1 logged, not yet applied
        second.start()
        second.join(timeout=0.5)  # the fix holds it until the first applies
        resume.set()
        first.join(timeout=10)
        second.join(timeout=10)
        assert not first.is_alive() and not second.is_alive()
        assert live.dynamic_session(sid).instance.tree.requests(client) == 5
        assert live.stats().durability.records_appended == 3
        self._assert_restart_matches(tmp_path, live)


    def test_concurrent_applies_and_a_close_recover(self, tmp_path):
        # More threads than cores and a short switch interval: an apply
        # logged out of its apply order, or after its session's close,
        # breaks the restart's equality with the live state.
        live = self._durable(tmp_path)
        kept, closed = sids = [live.start_dynamic(inst) for inst in INSTANCES]
        clients = {sid: sorted(live.dynamic_session(sid).instance.tree.clients) for sid in sids}
        churned = threading.Event()

        def churn(k):
            for step in range(10):
                for sid in sids:
                    client = clients[sid][(k + step) % len(clients[sid])]
                    try:
                        live.apply_events(sid, [DemandEvent(client, (k + step) % 6)])
                    except UnknownSessionError:
                        pass  # `closed`, closed under it
                churned.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            assert churned.wait(timeout=30)
            live.close_dynamic(closed)
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert [s["session_id"] for s in live.dynamic_sessions()] == [kept]
        self._assert_restart_matches(tmp_path, live)


class TestStructuralDamage:
    """Damaged service-level state fails typed, never silently."""

    def _raw_store(self, tmp_path) -> StateStore:
        store = StateStore(str(tmp_path / "state"), fsync=False)
        store.recover()
        return store

    def test_events_for_unknown_session_raise(self, tmp_path):
        store = self._raw_store(tmp_path)
        store.append(
            SessionEvents(session_id="dyn-7-feedbeef", events=[])
        )
        store.close()
        with pytest.raises(RecoveryError, match="unknown session"):
            PlacementService(
                store=StateStore(str(tmp_path / "state"), fsync=False)
            )

    def test_duplicate_session_start_raises(self, tmp_path):
        from repro.instances.io import instance_to_dict

        wire = instance_to_dict(INSTANCES[0])
        store = self._raw_store(tmp_path)
        store.append(SessionStart(session_id="dyn-1-aaaa", instance=wire))
        store.append(SessionStart(session_id="dyn-1-aaaa", instance=wire))
        store.close()
        with pytest.raises(RecoveryError, match="duplicate SessionStart"):
            PlacementService(
                store=StateStore(str(tmp_path / "state"), fsync=False)
            )

    def test_malformed_record_body_raises(self, tmp_path):
        store = self._raw_store(tmp_path)
        store.append(
            SessionStart(session_id="dyn-1-aaaa", instance={"not": "an instance"})
        )
        store.close()
        with pytest.raises(RecoveryError, match="replay of record seq 1"):
            PlacementService(
                store=StateStore(str(tmp_path / "state"), fsync=False)
            )


class TestStatsPlumbing:
    def test_healthz_wire_carries_durability(self, tmp_path):
        service = PlacementService(
            store=StateStore(str(tmp_path / "state"), fsync=False)
        )
        service.solve_instance(INSTANCES[0])
        wire = service.stats().to_wire()
        assert wire["durability"]["data_dir"] == str(tmp_path / "state")
        assert wire["durability"]["last_seq"] == 1
        service.close()

    def test_in_memory_service_has_no_durability_section(self):
        service = PlacementService()
        assert service.stats().durability is None
        assert "durability" not in service.stats().to_wire()
        service.close()
