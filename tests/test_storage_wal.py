"""WAL framing: round trips, torn-tail tolerance, corruption detection.

The contract under test (see ``docs/durability.md``): damage at the
*end* of the log is expected crash residue and recovery proceeds with
every complete record; the same damage *mid-log* — or any sequence
anomaly — raises a typed ``RecoveryError`` and never silently skips.
"""

from __future__ import annotations

import os
import struct

import pytest

from repro.storage import (
    MAX_RECORD_BYTES,
    RecoveryError,
    WriteAheadLog,
    atomic_write_bytes,
    durable_append_line,
    scan_wal,
)
from repro.storage import wal as wal_module
from repro.storage.wal import _FILE_HEADER, _FRAME


def _wal(tmp_path, records) -> str:
    path = str(tmp_path / "wal.log")
    with WriteAheadLog(path) as wal:
        for seq, payload in records:
            wal.append(seq, payload)
    return path


class TestRoundTrip:
    def test_empty_missing_file(self, tmp_path):
        scan = scan_wal(str(tmp_path / "absent.log"))
        assert scan.records == [] and not scan.torn_tail
        assert scan.last_seq == 0

    def test_append_then_scan(self, tmp_path):
        rows = [(1, b"alpha"), (2, b""), (3, b"x" * 1000)]
        scan = scan_wal(_wal(tmp_path, rows))
        assert scan.records == rows
        assert not scan.torn_tail
        assert scan.last_seq == 3

    def test_header_only_file(self, tmp_path):
        path = _wal(tmp_path, [(1, b"a")])
        with open(path, "r+b") as fh:
            fh.truncate(len(_FILE_HEADER))
        scan = scan_wal(path)
        assert scan.records == [] and not scan.torn_tail

    def test_size_and_valid_bytes_agree(self, tmp_path):
        path = _wal(tmp_path, [(1, b"abc"), (2, b"defg")])
        assert scan_wal(path).valid_bytes == os.path.getsize(path)


class TestTornTails:
    """End-of-file damage is tolerated and reported, never raised."""

    @pytest.mark.parametrize("keep", [1, 5, 11])
    def test_torn_file_header(self, tmp_path, keep):
        path = _wal(tmp_path, [(1, b"a")])
        with open(path, "r+b") as fh:
            fh.truncate(keep)
        scan = scan_wal(path)
        assert scan.records == [] and scan.torn_tail
        assert scan.valid_bytes == 0

    def test_every_truncation_point_recovers(self, tmp_path):
        rows = [(1, b"first"), (2, b"second"), (3, b"third")]
        path = _wal(tmp_path, rows)
        data = open(path, "rb").read()
        # Frame boundaries: header, then header+frame1, ...
        bounds = [len(_FILE_HEADER)]
        for _seq, payload in rows:
            bounds.append(bounds[-1] + _FRAME.size + len(payload))
        for cut in range(len(_FILE_HEADER), len(data) + 1):
            with open(path, "wb") as fh:
                fh.write(data[:cut])
            scan = scan_wal(path)
            n_complete = sum(1 for b in bounds[1:] if b <= cut)
            assert [s for s, _ in scan.records] == list(
                range(1, n_complete + 1)
            ), f"cut at byte {cut}"
            assert scan.torn_tail == (cut not in bounds), f"cut at byte {cut}"

    def test_zero_filled_tail(self, tmp_path):
        path = _wal(tmp_path, [(1, b"a"), (2, b"b")])
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 4096)
        scan = scan_wal(path)
        assert scan.last_seq == 2 and scan.torn_tail

    def test_crc_mismatch_in_final_frame(self, tmp_path):
        path = _wal(tmp_path, [(1, b"aaaa"), (2, b"bbbb")])
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.seek(size - 2)  # inside the last frame's payload
            fh.write(b"Z")
        scan = scan_wal(path)
        assert scan.last_seq == 1 and scan.torn_tail

    def test_absurd_length_in_torn_final_header(self, tmp_path):
        path = _wal(tmp_path, [(1, b"a")])
        with open(path, "ab") as fh:
            fh.write(_FRAME.pack(MAX_RECORD_BYTES + 1, 0, 2))
        scan = scan_wal(path)
        assert scan.last_seq == 1 and scan.torn_tail

    def test_truncate_to_valid_allows_clean_reappend(self, tmp_path):
        path = _wal(tmp_path, [(1, b"a"), (2, b"b")])
        with open(path, "ab") as fh:
            fh.write(b"partial-frame-residu")
        wal = WriteAheadLog(path)
        scan = wal.truncate_to_valid()
        assert scan.last_seq == 2 and not scan.torn_tail
        wal.append(3, b"c")
        wal.close()
        healed = scan_wal(path)
        assert [s for s, _ in healed.records] == [1, 2, 3]
        assert not healed.torn_tail

    def test_truncate_torn_header_resets_to_empty(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with open(path, "wb") as fh:
            fh.write(_FILE_HEADER[:7])  # crash mid-header
        wal = WriteAheadLog(path)
        wal.truncate_to_valid()
        assert os.path.getsize(path) == 0
        wal.append(1, b"fresh")
        wal.close()
        assert scan_wal(path).records == [(1, b"fresh")]


class TestCorruption:
    """The same defects mid-log are structural damage and raise."""

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with open(path, "wb") as fh:
            fh.write(b"NOTAWAL!" + b"\x01\x00\x00\x00" + b"junk" * 10)
        with pytest.raises(RecoveryError, match="bad magic"):
            scan_wal(path)

    def test_unsupported_version(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with open(path, "wb") as fh:
            fh.write(b"RPROWAL1" + struct.pack("<I", 99))
        with pytest.raises(RecoveryError, match="version 99"):
            scan_wal(path)

    def test_crc_mismatch_mid_log(self, tmp_path):
        path = _wal(tmp_path, [(1, b"aaaa"), (2, b"bbbb")])
        with open(path, "r+b") as fh:
            fh.seek(len(_FILE_HEADER) + _FRAME.size)  # frame 1 payload
            fh.write(b"Z")
        with pytest.raises(RecoveryError, match="CRC mismatch.*mid-log"):
            scan_wal(path)

    def test_duplicate_sequence_number(self, tmp_path):
        path = _wal(tmp_path, [(1, b"a"), (1, b"a-again")])
        with pytest.raises(RecoveryError, match="does not increase"):
            scan_wal(path)

    def test_regressing_sequence_number(self, tmp_path):
        path = _wal(tmp_path, [(1, b"a"), (2, b"b"), (1, b"zombie")])
        with pytest.raises(RecoveryError, match="does not increase"):
            scan_wal(path)

    def test_sequence_gap(self, tmp_path):
        path = _wal(tmp_path, [(1, b"a"), (3, b"c")])
        with pytest.raises(RecoveryError, match="sequence gap"):
            scan_wal(path)

    def test_absurd_length_mid_log(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with open(path, "wb") as fh:
            fh.write(_FILE_HEADER)
            fh.write(_FRAME.pack(MAX_RECORD_BYTES + 1, 0, 1))
            fh.write(b"x" * (2 * _FRAME.size + MAX_RECORD_BYTES + 1))
        # More data than the declared length follows -> corrupt, not torn.
        with pytest.raises(RecoveryError, match="absurd length"):
            scan_wal(path)


class TestCompaction:
    def test_compact_drops_claimed_prefix(self, tmp_path):
        path = _wal(tmp_path, [(s, f"row{s}".encode()) for s in range(1, 6)])
        wal = WriteAheadLog(path)
        assert wal.compact(3) == 2
        wal.close()
        scan = scan_wal(path)
        assert [s for s, _ in scan.records] == [4, 5]

    def test_compact_everything_leaves_valid_empty_log(self, tmp_path):
        path = _wal(tmp_path, [(1, b"a")])
        wal = WriteAheadLog(path)
        assert wal.compact(1) == 0
        wal.append(2, b"after")
        wal.close()
        assert scan_wal(path).records == [(2, b"after")]

    @staticmethod
    def _count_scans(monkeypatch) -> list:
        calls = []
        scan = wal_module.scan_wal

        def counting(path):
            calls.append(path)
            return scan(path)

        monkeypatch.setattr(wal_module, "scan_wal", counting)
        return calls

    def test_nothing_surviving_skips_the_scan(self, tmp_path, monkeypatch):
        path = str(tmp_path / "wal.log")
        scans = self._count_scans(monkeypatch)
        with WriteAheadLog(path) as wal:
            for seq in (1, 2, 3):
                wal.append(seq, b"x" * 64)
            assert wal.compact(3) == 0
            assert scans == []
            wal.append(4, b"after")
        with open(path, "rb") as fh:
            assert fh.read(len(_FILE_HEADER)) == _FILE_HEADER
        assert [s for s, _ in scan_wal(path).records] == [4]
        # A handle that only scanned the log knows its last seq too.
        with WriteAheadLog(path) as wal:
            assert [s for s, _ in wal.scan().records] == [4]
            del scans[:]
            assert wal.compact(4) == 0
            assert scans == []
        assert os.path.getsize(path) == len(_FILE_HEADER)

    def test_a_frame_after_the_watermark_survives(self, tmp_path, monkeypatch):
        path = str(tmp_path / "wal.log")
        scans = self._count_scans(monkeypatch)
        with WriteAheadLog(path) as wal:
            for seq in (1, 2, 3):
                wal.append(seq, f"row{seq}".encode())
            assert wal.compact(2) == 1
            assert len(scans) == 1
        assert scan_wal(path).records == [(3, b"row3")]

    def test_an_unknown_last_seq_scans(self, tmp_path, monkeypatch):
        path = _wal(tmp_path, [(1, b"a"), (2, b"b")])
        scans = self._count_scans(monkeypatch)
        with WriteAheadLog(path) as wal:
            assert wal.compact(1) == 1
        assert scans == [path]
        assert scan_wal(path).records == [(2, b"b")]


class TestFsutil:
    def test_atomic_write_replaces_and_removes_temp(self, tmp_path):
        path = str(tmp_path / "blob.bin")
        atomic_write_bytes(path, b"one")
        atomic_write_bytes(path, b"two")
        assert open(path, "rb").read() == b"two"
        assert os.listdir(tmp_path) == ["blob.bin"]

    def test_durable_append_line_basic(self, tmp_path):
        path = str(tmp_path / "rows.jsonl")
        durable_append_line(path, "first")
        durable_append_line(path, "second")
        assert open(path).read() == "first\nsecond\n"

    def test_durable_append_line_repairs_torn_tail(self, tmp_path):
        path = str(tmp_path / "rows.jsonl")
        durable_append_line(path, "complete")
        with open(path, "ab") as fh:
            fh.write(b'{"torn": tru')  # crash mid-append, no newline
        durable_append_line(path, "after-crash")
        lines = open(path).read().splitlines()
        # The torn fragment is confined to its own line; both intact
        # rows are readable.
        assert lines == ["complete", '{"torn": tru', "after-crash"]
