"""StateStore: the WAL + snapshot + compaction discipline end to end."""

from __future__ import annotations

import os

import pytest

from repro.storage import wal as wal_module
from repro.storage import (
    CachePut,
    RecoveryError,
    SessionClose,
    StateStore,
    encode_record,
    list_snapshots,
    scan_wal,
    snapshot_path,
    write_snapshot,
    WriteAheadLog,
)


def _put(n: int) -> CachePut:
    return CachePut(key=f"k{n}", instance_fp=f"fp{n}", response={"n": n})


class TestLifecycle:
    def test_append_before_recover_raises(self, tmp_path):
        store = StateStore(str(tmp_path / "d"))
        with pytest.raises(RuntimeError, match="before recover"):
            store.append(_put(1))

    def test_recover_twice_raises(self, tmp_path):
        store = StateStore(str(tmp_path / "d"))
        store.recover()
        with pytest.raises(RuntimeError, match="twice"):
            store.recover()

    def test_fresh_directory_recovers_empty(self, tmp_path):
        store = StateStore(str(tmp_path / "d"))
        recovered = store.recover()
        assert recovered.snapshot is None
        assert recovered.records == [] and not recovered.torn_tail

    def test_append_assigns_contiguous_seqs(self, tmp_path):
        store = StateStore(str(tmp_path / "d"))
        store.recover()
        assert [store.append(_put(n)) for n in range(4)] == [1, 2, 3, 4]
        store.close()


class TestRecovery:
    def test_log_only_replay(self, tmp_path):
        d = str(tmp_path / "d")
        store = StateStore(d)
        store.recover()
        for n in range(3):
            store.append(_put(n))
        store.close()

        again = StateStore(d)
        recovered = again.recover()
        assert [seq for seq, _ in recovered.records] == [1, 2, 3]
        assert [r.key for _, r in recovered.records] == ["k0", "k1", "k2"]
        # Appends continue past the recovered tail.
        assert again.append(_put(9)) == 4
        again.close()

    def test_snapshot_plus_tail_replay(self, tmp_path):
        d = str(tmp_path / "d")
        store = StateStore(d, snapshot_interval=0)
        store.recover()
        for n in range(3):
            seq = store.append(_put(n))
            store.note_applied(seq)
        store.snapshot_now(lambda: {"upto": 3})
        store.append(_put(3))
        store.close()

        again = StateStore(d)
        recovered = again.recover()
        assert recovered.snapshot == {"upto": 3}
        assert recovered.snapshot_seq == 3
        assert [seq for seq, _ in recovered.records] == [4]
        again.close()

    def test_stale_wal_frames_skipped_not_replayed(self, tmp_path):
        """Snapshot newer than log: crash between snapshot and compact."""
        d = str(tmp_path / "d")
        store = StateStore(d, snapshot_interval=0)
        store.recover()
        for n in range(3):
            seq = store.append(_put(n))
            store.note_applied(seq)
        store.close()
        # Write the snapshot by hand *without* compacting the WAL —
        # exactly the state a crash between the two leaves behind.
        write_snapshot(d, 2, {"upto": 2})

        again = StateStore(d)
        recovered = again.recover()
        assert recovered.snapshot_seq == 2
        assert [seq for seq, _ in recovered.records] == [3]
        assert again.status().records_skipped == 2
        again.close()

    def test_torn_tail_truncated_and_counted(self, tmp_path):
        d = str(tmp_path / "d")
        store = StateStore(d)
        store.recover()
        store.append(_put(1))
        store.close()
        wal_path = os.path.join(d, StateStore.WAL_FILENAME)
        with open(wal_path, "ab") as fh:
            fh.write(b"torn-frame-resid")
        size_with_residue = os.path.getsize(wal_path)

        again = StateStore(d)
        recovered = again.recover()
        assert recovered.torn_tail
        assert [seq for seq, _ in recovered.records] == [1]
        assert again.status().torn_tail_recovered
        assert os.path.getsize(wal_path) < size_with_residue
        again.close()

    def test_seq_gap_between_snapshot_and_log_raises(self, tmp_path):
        d = str(tmp_path / "d")
        store = StateStore(d, snapshot_interval=0)
        store.recover()
        for n in range(4):
            seq = store.append(_put(n))
            store.note_applied(seq)
        store.close()
        # Snapshot claims seq 1; log frames 3-4 survive a hand-compact
        # that dropped too much: record 2 is unrecoverable.
        write_snapshot(d, 1, {"upto": 1})
        wal = WriteAheadLog(os.path.join(d, StateStore.WAL_FILENAME))
        wal.compact(2)
        wal.close()

        with pytest.raises(RecoveryError, match="missing"):
            StateStore(d).recover()

    def test_log_starting_past_one_without_snapshot_raises(self, tmp_path):
        d = str(tmp_path / "d")
        os.makedirs(d)
        wal = WriteAheadLog(os.path.join(d, StateStore.WAL_FILENAME))
        wal.append(5, encode_record(_put(5)))
        wal.close()
        with pytest.raises(RecoveryError, match="no .*snapshot covering"):
            StateStore(d).recover()

    def test_undecodable_record_payload_raises(self, tmp_path):
        d = str(tmp_path / "d")
        os.makedirs(d)
        wal = WriteAheadLog(os.path.join(d, StateStore.WAL_FILENAME))
        wal.append(1, b"not json at all")
        wal.append(2, encode_record(_put(2)))  # more data follows
        wal.close()
        with pytest.raises(RecoveryError, match="not JSON"):
            StateStore(d).recover()

    def test_unknown_record_kind_raises(self, tmp_path):
        d = str(tmp_path / "d")
        os.makedirs(d)
        wal = WriteAheadLog(os.path.join(d, StateStore.WAL_FILENAME))
        wal.append(1, b'{"kind": "from-the-future"}')
        wal.close()
        with pytest.raises(RecoveryError, match="unknown record kind"):
            StateStore(d).recover()

    def test_corrupt_newest_snapshot_never_silently_falls_back(self, tmp_path):
        d = str(tmp_path / "d")
        store = StateStore(d, snapshot_interval=0)
        store.recover()
        seq = store.append(_put(1))
        store.note_applied(seq)
        store.snapshot_now(lambda: {"upto": 1})
        store.close()
        with open(snapshot_path(d, 9), "w", encoding="utf-8") as fh:
            fh.write("{half a snapsh")
        with pytest.raises(RecoveryError, match="unreadable snapshot"):
            StateStore(d).recover()


class TestSnapshotDiscipline:
    def test_auto_snapshot_every_interval_and_compacts(self, tmp_path):
        d = str(tmp_path / "d")
        store = StateStore(d, snapshot_interval=2)
        store.recover()
        states = []
        for n in range(5):
            seq = store.append(_put(n))
            store.note_applied(seq, lambda: states.append("snap") or {"n": n})
        status = store.status()
        assert status.snapshots_written == 2  # at seq 2 and seq 4
        assert status.last_snapshot_seq == 4
        # The WAL only holds the tail past the snapshot.
        assert [s for s, _ in scan_wal(os.path.join(d, StateStore.WAL_FILENAME)).records] == [5]
        store.close()

    def test_watermark_waits_for_contiguous_applies(self, tmp_path):
        store = StateStore(str(tmp_path / "d"), snapshot_interval=0)
        store.recover()
        s1 = store.append(_put(1))
        s2 = store.append(_put(2))
        store.note_applied(s2)  # out of order: 1 still outstanding
        assert store.snapshot_now(lambda: {}) == 0
        store.note_applied(s1)
        assert store.snapshot_now(lambda: {}) == s2
        store.close()

    def test_snapshot_now_prunes_wal_and_survives_restart(self, tmp_path):
        d = str(tmp_path / "d")
        store = StateStore(d, snapshot_interval=0)
        store.recover()
        for n in range(3):
            store.note_applied(store.append(_put(n)))
        assert store.snapshot_now(lambda: {"upto": 3}) == 3
        store.close()
        assert [seq for seq, _ in list_snapshots(d)] == [3]

        again = StateStore(d)
        recovered = again.recover()
        assert recovered.snapshot == {"upto": 3} and recovered.records == []
        again.close()

    def test_snapshot_at_the_last_seq_compacts_without_reading_the_log(
        self, tmp_path, monkeypatch
    ):
        d = str(tmp_path / "d")
        store = StateStore(d, snapshot_interval=0)
        store.recover()
        store.note_applied(store.append(_put(1)))
        scans = []
        scan = wal_module.scan_wal
        monkeypatch.setattr(
            wal_module, "scan_wal", lambda path: scans.append(path) or scan(path)
        )
        assert store.snapshot_now(lambda: {"upto": 1}) == 1
        assert scans == []
        # Appended but not yet applied: past the watermark, so kept.
        store.note_applied(store.append(_put(2)))
        pending = store.append(_put(3))
        monkeypatch.undo()
        assert store.snapshot_now(lambda: {"upto": 2}) == 2
        store.close()

        again = StateStore(d)
        recovered = again.recover()
        assert recovered.snapshot == {"upto": 2}
        assert [seq for seq, _ in recovered.records] == [pending]
        again.close()

    def test_status_counters(self, tmp_path):
        d = str(tmp_path / "d")
        store = StateStore(d, snapshot_interval=0)
        store.recover()
        store.note_applied(store.append(_put(1)))
        store.note_applied(store.append(_put(2)))
        store.note_applied(store.append(SessionClose(session_id="dyn-1-x")))
        status = store.status()
        assert status.records_appended == 3
        assert status.last_seq == 3
        assert status.wal_bytes > 12
        wire = status.to_wire()
        assert wire["last_seq"] == 3 and wire["data_dir"] == d
        store.close()
