"""Unit tests for the write-ahead log: framing, checksums, torn tails,
segment rotation/retirement, and sequence numbering across reopen."""

import os
import struct
import zlib

import pytest

from repro.errors import WalError
from repro.service.wal import (
    LEGACY_MAGIC,
    SEGMENT_HEADER_SIZE,
    WriteAheadLog,
    list_segments,
    segment_path,
    wal_exists,
)


@pytest.fixture
def wal_path(tmp_path):
    return str(tmp_path / "test.wal")


class TestAppendAndScan:
    def test_round_trip(self, wal_path):
        with WriteAheadLog(wal_path, sync_mode="never") as wal:
            assert wal.append(b"one") == 1
            assert wal.append(b"two") == 2
            wal.sync()
            records, torn = wal.scan()
        assert [(r.seq, r.payload) for r in records] == [(1, b"one"), (2, b"two")]
        assert torn == 0

    def test_sequence_continues_across_reopen(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.append(b"a")
            wal.sync()
        with WriteAheadLog(wal_path) as wal:
            assert wal.next_seq == 2
            assert wal.append(b"b") == 2
            wal.sync()
            assert [r.seq for r in wal.records()] == [1, 2]

    def test_empty_log(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            assert wal.records() == []
            assert wal.next_seq == 1

    def test_bad_magic_rejected(self, wal_path):
        with open(wal_path, "wb") as handle:
            handle.write(b"NOTAWAL!" + b"x" * 32)
        with pytest.raises(WalError):
            WriteAheadLog(wal_path)

    def test_sync_mode_validated(self, wal_path):
        with pytest.raises(WalError):
            WriteAheadLog(wal_path, sync_mode="sometimes")

    def _legacy_bytes(self):
        payload = b"legacy-record"
        return LEGACY_MAGIC + (
            struct.pack("<QII", 1, len(payload), zlib.crc32(payload)) + payload
        )

    def test_legacy_single_file_is_refused_not_ignored(self, wal_path):
        """A pre-segment WAL file (XRWAL001) at the base path is neither
        adopted nor overlooked: opening must not start a fresh segment 1
        beside acknowledged data."""
        with open(wal_path, "wb") as handle:
            handle.write(self._legacy_bytes())
        assert wal_exists(wal_path)
        with pytest.raises(WalError, match="XRWAL001"):
            WriteAheadLog(wal_path)
        assert os.path.exists(wal_path)
        assert not os.path.exists(segment_path(wal_path, 1))

    def test_legacy_magic_on_segment_one_is_refused_not_torn(self, wal_path):
        """An XRWAL001 file sitting under the segment-1 name is not a
        torn header: it must raise, and the bytes must survive (a tear
        would be truncated away by recovery)."""
        legacy = self._legacy_bytes()
        with open(segment_path(wal_path, 1), "wb") as handle:
            handle.write(legacy)
        with pytest.raises(WalError, match="XRWAL001"):
            WriteAheadLog(wal_path)
        with open(segment_path(wal_path, 1), "rb") as handle:
            assert handle.read() == legacy


class TestTornTail:
    def _write(self, wal_path, payloads):
        with WriteAheadLog(wal_path, sync_mode="never") as wal:
            for payload in payloads:
                wal.append(payload)
            wal.sync()
            return wal.current_segment_path

    def test_partial_frame_is_torn(self, wal_path):
        tail = self._write(wal_path, [b"alpha", b"beta"])
        with open(tail, "ab") as handle:
            handle.write(b"\x03\x00")  # half a frame
        with WriteAheadLog(wal_path) as wal:
            records, torn = wal.scan()
            assert [r.payload for r in records] == [b"alpha", b"beta"]
            assert torn == 2

    def test_corrupt_payload_is_torn(self, wal_path):
        tail = self._write(wal_path, [b"alpha", b"beta"])
        size = os.path.getsize(tail)
        with open(tail, "r+b") as handle:
            handle.seek(size - 1)
            handle.write(b"\xff")  # flip the last payload byte
        with WriteAheadLog(wal_path) as wal:
            records, torn = wal.scan()
            assert [r.payload for r in records] == [b"alpha"]
            assert torn > 0

    def test_append_blocked_until_truncated(self, wal_path):
        tail = self._write(wal_path, [b"alpha"])
        with open(tail, "ab") as handle:
            handle.write(b"junk")
        with WriteAheadLog(wal_path) as wal:
            with pytest.raises(WalError):
                wal.append(b"beta")
            assert wal.truncate_torn_tail() == 4
            assert wal.append(b"beta") == 2
            wal.sync()
            records, torn = wal.scan()
            assert [r.payload for r in records] == [b"alpha", b"beta"]
            assert torn == 0

    def test_truncate_without_tear_is_noop(self, wal_path):
        self._write(wal_path, [b"alpha"])
        with WriteAheadLog(wal_path) as wal:
            assert wal.truncate_torn_tail() == 0
            assert [r.payload for r in wal.records()] == [b"alpha"]

    def test_tear_in_older_segment_invalidates_later_ones(self, wal_path):
        """A tear is a point of no return: segments after it are
        untrusted even if their own bytes parse."""
        with WriteAheadLog(wal_path) as wal:
            wal.append(b"a")
            wal.sync()
            first = wal.current_segment_path
            wal.rotate()
            wal.append(b"b")
            wal.sync()
        with open(first, "ab") as handle:
            handle.write(b"torn!")
        with WriteAheadLog(wal_path) as wal:
            records, torn = wal.scan()
            assert [r.payload for r in records] == [b"a"]
            assert torn > 5  # the junk plus the whole later segment
            wal.truncate_torn_tail()
            assert [r.payload for r in wal.records()] == [b"a"]
            assert len(wal.segment_paths) == 1


class TestRotation:
    def test_rotate_moves_appends_to_new_segment(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.append(b"a")
            wal.sync()
            old = wal.current_segment_path
            new = wal.rotate()
            assert new != old
            assert wal.segment_paths == [old, new]
            assert wal.append(b"b") == 2
            wal.sync()
            assert [r.seq for r in wal.records()] == [1, 2]
            assert os.path.getsize(new) > SEGMENT_HEADER_SIZE

    def test_auto_rotation_at_size_limit(self, wal_path):
        with WriteAheadLog(wal_path, max_segment_bytes=64) as wal:
            for index in range(8):
                wal.append(b"x" * 48)
            wal.sync()
            assert len(wal.segment_paths) > 1
            assert [r.seq for r in wal.records()] == list(range(1, 9))
        # Everything still replays across the segment chain after reopen.
        with WriteAheadLog(wal_path) as wal:
            assert [r.seq for r in wal.records()] == list(range(1, 9))
            assert wal.next_seq == 9

    def test_retire_old_segments(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.append(b"a")
            wal.sync()
            old = wal.current_segment_path
            wal.rotate()
            removed, size = wal.retire_old_segments()
            assert (removed, size > 0) == (1, True)
            assert not os.path.exists(old)
            assert wal.records() == []
            assert wal.append(b"b") == 2

    def test_retire_covered_keeps_uncovered_segments(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.append(b"a")  # seq 1
            wal.sync()
            wal.rotate()
            wal.append(b"b")  # seq 2
            wal.sync()
            wal.rotate()
            # Covered up to seq 1: only the first segment may go.
            removed, _size = wal.retire_covered_segments(1)
            assert removed == 1
            assert [r.seq for r in wal.records()] == [2]


class TestMaintenance:
    def test_reset_drops_records_keeps_seq(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.append(b"a")
            wal.append(b"b")
            wal.sync()
            wal.reset()
            assert wal.records() == []
            assert wal.append(b"c") == 3  # sequence numbers keep counting
            wal.sync()
            live = wal.current_segment_path
        assert os.path.getsize(live) > SEGMENT_HEADER_SIZE
        assert len(list_segments(wal_path)) == 1

    def test_seq_persists_across_checkpoint_and_reopen(self, wal_path):
        """Regression: a checkpoint that retired every record-bearing
        segment used to make a *reopened* log restart numbering at 1,
        so old commit markers named new, different operations."""
        with WriteAheadLog(wal_path) as wal:
            wal.append(b"a")
            wal.append(b"b")
            wal.sync()
            wal.reset()  # the empty live segment is all that remains
        with WriteAheadLog(wal_path) as wal:
            assert wal.next_seq == 3
            assert wal.append(b"c") == 3

    def test_closed_log_rejects_work(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.close()
        wal.close()  # idempotent
        with pytest.raises(WalError):
            wal.append(b"x")
        with pytest.raises(WalError):
            wal.scan()
