"""Write-ahead journal: durability framing, torn tails, compaction.

Satellite coverage for the corrupt-file robustness requirement: every
damage mode either stops replay at the last valid record (the torn-tail
crash signature) or raises a *typed* error — never a raw
``struct.error``/``KeyError``.  Both payload encodings are covered: the
binary ``report_batch`` record and JSON for everything else (and for
every record of older journals).
"""

import errno
import json
import os
import pathlib
import struct
import tempfile
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.journal import (
    JournalCorruptError,
    JournalError,
    JournalTornWrite,
    WriteAheadJournal,
)


def rec(i, **extra):
    return {"op": "report", "tenant": "t", "machine": f"m{i}", **extra}


def batch(i, rows=2, cols=3):
    """A ``report_batch`` record: journaled as a binary payload."""
    values = np.random.default_rng(i).normal(size=(rows, cols))
    return {
        "op": "report_batch", "tenant": "t", "epoch": i,
        "machines": [f"m{i}-{r}" for r in range(rows)],
        "values": values.tolist(),
        "violations": [r % 2 == 1 for r in range(rows)],
    }


def frame(payload):
    """``<u32 length> <u32 crc32> <payload>``: a CRC-valid record."""
    return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


def json_frame(record):
    """A record framed the way every record was before binary batches."""
    return frame(json.dumps(record, separators=(",", ":")).encode("utf-8"))


def binary(header, block=b"", tag=b"\x01"):
    """A binary payload: tag, header length, header, value block."""
    return tag + struct.pack("<I", len(header)) + header + block


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


#: Values JSON and raw float64 must both carry bit for bit.
SPECIAL = [
    -0.0, 0.0, float("inf"), float("-inf"), float("nan"),
    5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
]
#: NaNs with a sign bit and a payload: only the raw encoding keeps them.
ODD_NANS = np.array(
    [0xFFF8000000000000, 0x7FF8000000000001, 0x7FFFFFFFFFFFFFFF],
    dtype=np.uint64,
).view(np.float64).tolist()


class TestAppendReplay:
    def test_seqs_are_contiguous_and_replayable(self, tmp_path):
        with WriteAheadJournal(tmp_path / "j.wal") as j:
            seqs = j.append_many([rec(0), rec(1), rec(2)])
            assert seqs == [1, 2, 3]
            assert j.append(rec(3)) == 4
            records = j.replay()
        assert [r["seq"] for r in records] == [1, 2, 3, 4]
        assert records[0]["machine"] == "m0"

    def test_replay_after_seq_skips_applied_prefix(self, tmp_path):
        with WriteAheadJournal(tmp_path / "j.wal") as j:
            j.append_many([rec(i) for i in range(5)])
            assert [r["seq"] for r in j.replay(after_seq=3)] == [4, 5]

    def test_reopen_resumes_sequence(self, tmp_path):
        path = tmp_path / "j.wal"
        with WriteAheadJournal(path) as j:
            j.append_many([rec(0), rec(1)])
        with WriteAheadJournal(path) as j:
            assert j.last_seq == 2
            assert j.append(rec(2)) == 3

    def test_payload_floats_survive_bitwise(self, tmp_path):
        values = [float(v) for v in np.random.default_rng(1).normal(size=8)]
        values += SPECIAL
        matrix = [values + ODD_NANS, values[::-1] + ODD_NANS[::-1]]
        record = {**batch(0, rows=2), "values": matrix}
        with WriteAheadJournal(tmp_path / "j.wal") as j:
            j.append_many([{"values": values}, record])
            plain, raw = j.replay()
        np.testing.assert_array_equal(bits(plain["values"]), bits(values))
        np.testing.assert_array_equal(bits(raw["values"]), bits(matrix))
        assert all(type(v) is float for row in raw["values"] for v in row)

    def test_report_batch_replays_the_record_it_appended(self, tmp_path):
        records = [batch(0), {"op": "close_epoch", "epoch": 0}, batch(1)]
        with WriteAheadJournal(tmp_path / "j.wal") as j:
            assert j.append_many([dict(r) for r in records]) == [1, 2, 3]
            got = j.replay()
        assert got == [
            {**r, "seq": seq} for seq, r in enumerate(records, start=1)
        ]
        blob = j.path.read_bytes()
        # Only the batch records are binary: the close stays JSON.
        assert blob[8:9] == b"\x01"
        assert b'{"op":"close_epoch","epoch":0,"seq":2}' in blob


class TestEncodeBeforeWrite:
    """A batch that cannot be encoded leaves no trace at all."""

    @pytest.mark.parametrize("bad, error", [
        ({"op": "diagnose", "x": object()}, TypeError),
        ({**batch(1), "values": [[1.0, 2.0], [3.0]]}, ValueError),
        ({**batch(1), "values": [[1.0, 2.0, 3.0]]}, ValueError),
        ({**batch(1), "values": [[], []]}, ValueError),
        ({**batch(1), "values": [["a", 1.0, 2.0], [1.0, 2.0, 3.0]]},
         ValueError),
        ({**batch(1), "values": [[[1.0]], [[2.0]]]}, ValueError),
        ({**batch(1), "machines": [], "values": []}, ValueError),
        ({k: v for k, v in batch(1).items() if k != "values"}, ValueError),
    ], ids=[
        "not-json", "ragged", "rows-not-machines", "empty-rows",
        "string-value", "three-dim", "no-machines", "no-values",
    ])
    def test_encoding_error_raises_before_a_byte_is_written(
        self, tmp_path, bad, error
    ):
        path = tmp_path / "j.wal"
        with WriteAheadJournal(path) as j:
            j.append({"op": "close_epoch", "epoch": 0})
            size = path.stat().st_size
            records = [{"op": "close_epoch", "epoch": 1}, bad]
            with pytest.raises(error):
                j.append_many(records)
            assert path.stat().st_size == size
            assert "seq" not in records[0] and "seq" not in bad
            assert j.last_seq == 1
            # Nothing of the failed batch is left in the write buffer
            # to surface under a reused seq with the next append.
            assert j.append({"op": "close_epoch", "epoch": 1}) == 2
            assert [r["seq"] for r in j.replay()] == [1, 2]
            assert j.replay()[1]["epoch"] == 1


class TestTornTail:
    @pytest.mark.parametrize("cut", [1, 3, 7, 10, 20])
    def test_truncated_tail_stops_at_last_valid_record(self, tmp_path, cut):
        path = tmp_path / "j.wal"
        with WriteAheadJournal(path) as j:
            j.append_many([rec(i) for i in range(3)])
        size = path.stat().st_size
        with open(path, "r+b") as fh:
            fh.truncate(size - cut)
        with WriteAheadJournal(path) as j:
            records = j.replay()
            # The cut can only have destroyed the final record.
            assert [r["seq"] for r in records] in ([1, 2], [1, 2, 3])

    def test_flipped_byte_in_tail_record_is_torn_tail(self, tmp_path):
        path = tmp_path / "j.wal"
        with WriteAheadJournal(path) as j:
            j.append_many([rec(0), rec(1)])
        data = bytearray(path.read_bytes())
        data[-3] ^= 0xFF  # corrupt the last record's payload
        path.write_bytes(bytes(data))
        with WriteAheadJournal(path) as j:
            assert [r["seq"] for r in j.replay()] == [1]

    def test_truncate_tail_trims_damage(self, tmp_path):
        path = tmp_path / "j.wal"
        with WriteAheadJournal(path) as j:
            j.append_many([rec(0), rec(1)])
            intact = j.valid_size()
        with open(path, "ab") as fh:
            # A record prefix claiming 32 payload bytes, then the plug
            # was pulled after only 4 arrived.
            fh.write(b"\x20\x00\x00\x00\xde\xad\xbe\xefAAAA")
        with WriteAheadJournal(path) as j:
            dropped = j.truncate_tail()
            assert dropped > 0
            assert path.stat().st_size == intact
            # The journal is writable again after the trim.
            j.append(rec(2))
            assert [r["seq"] for r in j.replay()] == [1, 2, 3]

    def test_mid_file_corruption_is_typed(self, tmp_path):
        path = tmp_path / "j.wal"
        with WriteAheadJournal(path) as j:
            j.append_many([rec(i) for i in range(3)])
        data = bytearray(path.read_bytes())
        data[12] ^= 0xFF  # damage the FIRST record, not the tail
        path.write_bytes(bytes(data))
        with WriteAheadJournal(path) as j:
            with pytest.raises(JournalCorruptError):
                j.replay()

    @pytest.mark.parametrize("payload", [
        binary(b'{"machines":["a"]}', bytes(8), tag=b"\x02"),
        b"\x01\x05\x00",
        binary(b'{"machines":["a"]}')[:-3],
        binary(b"notjs", bytes(8)),
        binary(b"[]", bytes(8)),
        binary(b'{"machines":[]}', bytes(8)),
        binary(b'{"machines":["a","b"]}', bytes(24)),
        binary(b'{"machines":["a","b"]}'),
        b"",
        b"[1]",
    ], ids=[
        "unknown-tag", "short-prefix", "header-past-payload",
        "header-not-json", "header-not-object", "no-machines",
        "block-not-rows-of-float64", "empty-block", "empty", "json-list",
    ])
    @pytest.mark.parametrize("at_tail", [True, False])
    def test_crc_valid_undecodable_payload_is_typed(
        self, tmp_path, payload, at_tail
    ):
        path = tmp_path / "j.wal"
        with WriteAheadJournal(path) as j:
            j.append_many([batch(0), rec(1)])
        with open(path, "ab") as fh:
            fh.write(frame(payload))
            if not at_tail:
                fh.write(json_frame({**rec(2), "seq": 3}))
        with WriteAheadJournal(path) as j:
            for scan in (j.replay, j.valid_size, j.truncate_tail):
                with pytest.raises(JournalCorruptError):
                    scan()
            with pytest.raises(JournalCorruptError):
                j.last_seq
            with pytest.raises(JournalCorruptError):
                j.compact(applied_seq=1)

    def test_garbage_file_is_typed(self, tmp_path):
        path = tmp_path / "j.wal"
        # A huge bogus length prefix followed by more data than the
        # prefix region: implausible length -> typed error.
        path.write_bytes(b"\xff\xff\xff\xffgarbage" * 4)
        with WriteAheadJournal(path) as j:
            with pytest.raises(JournalCorruptError):
                j.replay()


class TestWriteFailures:
    def test_disk_full_rolls_back_the_whole_batch(self, tmp_path):
        calls = []

        def hook(frame):
            calls.append(frame)
            if len(calls) == 3:  # fail on the 3rd record of the batch
                raise OSError(errno.ENOSPC, "chaos: disk full")
            return None

        path = tmp_path / "j.wal"
        with WriteAheadJournal(path, write_hook=hook) as j:
            j.append_many([rec(0)])  # committed before the failure
            with pytest.raises(OSError):
                j.append_many([rec(1), rec(2), rec(3)])
            # The failed batch left no trace: not even its first two
            # records survive (no half-committed batches).
            assert [r["seq"] for r in j.replay()] == [1]
            # And the journal keeps working once space is back.
            j.write_hook = None
            assert j.append(rec(4)) == 2

    def test_enospc_at_flush_cannot_leak_buffered_frames(self, tmp_path):
        """Frames stuck in the writer's buffer die with the rollback.

        The true ENOSPC shape: writes land in the BufferedWriter fine
        and the *flush* fails.  If the rollback merely truncated the
        file, the undelivered frames would sit in the buffer and a
        later successful append would flush them past the truncation
        point with sequence numbers that were never advanced — durable
        duplicate seqs.  The rollback must discard the buffer.
        """
        path = tmp_path / "j.wal"
        j = WriteAheadJournal(path)
        j.append(rec(0))  # committed before the failure

        class FlushFull:
            """File proxy: buffering works, the next 2 flushes fail."""

            def __init__(self, fh):
                self._fh = fh
                self.failures = 2

            def write(self, b):
                return self._fh.write(b)

            def flush(self):
                if self.failures:
                    self.failures -= 1
                    raise OSError(errno.ENOSPC, "chaos: disk full")
                self._fh.flush()

            def tell(self):
                return self._fh.tell()

            def fileno(self):
                return self._fh.fileno()

            def seek(self, *args):
                return self._fh.seek(*args)

            def close(self):
                self._fh.close()

        j._fh = FlushFull(j._fh)
        with pytest.raises(OSError):
            j.append_many([rec(1), rec(2)])
        # Space comes back: the rolled-back frames must not resurface
        # with reused sequence numbers on the next successful append.
        assert j.append(rec(3)) == 2
        records = j.replay()
        assert [r["seq"] for r in records] == [1, 2]
        assert [r["machine"] for r in records] == ["m0", "m3"]
        j.close()

    def test_reserve_seq_pins_numbering_above_checkpoint_cursor(
        self, tmp_path
    ):
        """An empty journal + a reserved floor never reuses old seqs."""
        path = tmp_path / "j.wal"
        with WriteAheadJournal(path) as j:
            j.append_many([rec(0), rec(1)])
            j.compact(applied_seq=2)  # journal now empty
        with WriteAheadJournal(path) as j:  # restart: file remembers nothing
            j.reserve_seq(2)
            assert j.append(rec(2)) == 3
            # A floor below the journal's own knowledge is a no-op.
            j.reserve_seq(1)
            assert j.append(rec(3)) == 4

    def test_torn_write_persists_damage_and_raises(self, tmp_path):
        def hook(frame):
            return frame[: len(frame) // 2]  # die mid-write

        path = tmp_path / "j.wal"
        with WriteAheadJournal(path) as j:
            j.append(rec(0))
        with WriteAheadJournal(path, write_hook=hook) as j:
            with pytest.raises(JournalTornWrite):
                j.append(rec(1))
        # Recovery sees exactly what a pulled plug leaves: a torn tail
        # past the last intact record.
        with WriteAheadJournal(path) as j:
            assert [r["seq"] for r in j.replay()] == [1]
            j.truncate_tail()
            assert j.append(rec(2)) == 2


class TestCompaction:
    def test_compact_drops_applied_prefix(self, tmp_path):
        path = tmp_path / "j.wal"
        with WriteAheadJournal(path) as j:
            j.append_many([rec(i) for i in range(10)])
            kept = j.compact(applied_seq=7)
            assert kept == 3
            assert [r["seq"] for r in j.replay()] == [8, 9, 10]
            # Sequence numbering continues from the pre-compaction tip.
            assert j.append(rec(99)) == 11
        assert path.stat().st_size < 11 * 60  # actually shrank

    def test_compact_to_empty_still_tracks_seq(self, tmp_path):
        with WriteAheadJournal(tmp_path / "j.wal") as j:
            j.append_many([rec(0), rec(1)])
            assert j.compact(applied_seq=2) == 0
            assert j.replay() == []
            assert j.append(rec(2)) == 3

    @pytest.mark.parametrize("floor", [0, 1, 2, 4, 5, 6, 9])
    def test_survivors_keep_their_bytes(self, tmp_path, floor):
        path = tmp_path / "j.wal"
        offsets = [0]
        with WriteAheadJournal(path) as j:
            for i in range(6):
                j.append(batch(i) if i % 3 else rec(i))
                offsets.append(path.stat().st_size)
            before = path.read_bytes()
            kept = j.compact(applied_seq=floor)
            assert kept == max(0, 6 - floor)
            assert path.read_bytes() == before[offsets[min(floor, 6)]:]
            assert [r["seq"] for r in j.replay()] == list(
                range(floor + 1, 7)
            )
            assert j.append(batch(9)) == 7

    def test_compaction_leaves_a_torn_tail_behind(self, tmp_path):
        path = tmp_path / "j.wal"
        with WriteAheadJournal(path) as j:
            j.append(batch(0))
            first = path.stat().st_size
            j.append_many([batch(1), rec(2)])
        intact = path.read_bytes()
        with open(path, "ab") as fh:
            fh.write(frame(b"\x01" + bytes(40))[:-7])
        with WriteAheadJournal(path) as j:
            assert j.compact(applied_seq=1) == 2
        assert path.read_bytes() == intact[first:]

    def test_compact_is_atomic_no_tmp_left(self, tmp_path):
        with WriteAheadJournal(tmp_path / "j.wal") as j:
            j.append_many([rec(i) for i in range(4)])
            j.compact(applied_seq=2)
        leftovers = [p for p in os.listdir(tmp_path) if "tmp" in p]
        assert leftovers == []


def full_scan_compaction(path, applied_seq):
    """The bytes compaction keeps, found the way it found them before it
    indexed record ends: a scan and CRC check of every record."""
    blob = path.read_bytes()
    copy = path.with_name("oracle.wal")
    copy.write_bytes(blob)
    cut = end = kept = 0
    with WriteAheadJournal(copy) as j:
        for record, end in j._scan(values=False):
            if not kept and record.get("seq", 0) <= applied_seq:
                cut = end
            else:
                kept += 1
    copy.unlink()
    return blob[cut:end], kept


def mixed(start, n):
    return [batch(i, rows=1 + i % 3) if i % 2 else rec(i)
            for i in range(start, start + n)]


class TestIndexedCompaction:
    """Compaction bisects the kept record ends for its cut; what it
    writes must be byte for byte what a scan of every record kept."""

    def compact_like_a_full_scan(self, j, floor):
        want, kept = full_scan_compaction(j.path, floor)
        assert j.compact(floor) == kept
        assert j.path.read_bytes() == want
        return kept

    def test_pinned_floors_keep_a_suffix(self, tmp_path):
        path = tmp_path / "j.wal"
        with WriteAheadJournal(path) as j:
            j.append_many(mixed(0, 9))
            # A retention floor below the cursor keeps a non-empty suffix.
            assert self.compact_like_a_full_scan(j, 4) == 5
            j.append_many(mixed(9, 4))
            j.append(rec(20))
            assert self.compact_like_a_full_scan(j, 11) == 3
            assert self.compact_like_a_full_scan(j, 11) == 3  # idempotent
            assert self.compact_like_a_full_scan(j, 2) == 3  # below the cut
            assert self.compact_like_a_full_scan(j, 14) == 0
            assert j.append(batch(30)) == 15
            assert [r["seq"] for r in j.replay()] == [15]

    def test_compaction_after_recovery(self, tmp_path):
        path = tmp_path / "j.wal"
        with WriteAheadJournal(path) as j:
            j.append_many(mixed(0, 7))
        # A torn tail, as a crash mid-append leaves it.
        with open(path, "ab") as fh:
            fh.write(frame(b"\x01" + bytes(40))[:-5])
        with WriteAheadJournal(path) as j:
            # The index comes from one scan of the reopened file.
            assert self.compact_like_a_full_scan(j, 3) == 4
            j.truncate_tail()
            j.append_many(mixed(7, 3))
            assert self.compact_like_a_full_scan(j, 8) == 2
        with WriteAheadJournal(path) as j:
            assert [r["seq"] for r in j.replay()] == [9, 10]
            assert self.compact_like_a_full_scan(j, 9) == 1

    def test_compaction_after_reserve_seq(self, tmp_path):
        path = tmp_path / "j.wal"
        with WriteAheadJournal(path) as j:
            j.append_many(mixed(0, 3))
            j.reserve_seq(40)
            assert j.append_many(mixed(3, 4)) == [41, 42, 43, 44]
            assert self.compact_like_a_full_scan(j, 3) == 4
            assert self.compact_like_a_full_scan(j, 42) == 2
        with WriteAheadJournal(path) as j:
            j.reserve_seq(50)
            j.append(rec(9))
            assert self.compact_like_a_full_scan(j, 44) == 1
            assert [r["seq"] for r in j.replay()] == [51]

    def test_only_the_kept_suffix_is_read(self, tmp_path):
        def offsets(blob):
            at = [0]
            while at[-1] < len(blob):
                at.append(at[-1] + 8 + struct.unpack_from("<I", blob,
                                                          at[-1])[0])
            return at

        path = tmp_path / "j.wal"
        with WriteAheadJournal(path) as j:
            j.append_many(mixed(0, 6))
            blob = path.read_bytes()
            at = offsets(blob)
            # Damage inside the dropped prefix is never read ...
            damaged = bytearray(blob)
            damaged[at[1] + 10] ^= 0xFF
            path.write_bytes(bytes(damaged))
            assert j.compact(3) == 3
            assert path.read_bytes() == blob[at[3]:]
            # ... damage inside the kept suffix is never copied.
            kept = bytearray(path.read_bytes())
            kept[offsets(bytes(kept))[1] + 10] ^= 0xFF  # seq 5 of 4..6
            path.write_bytes(bytes(kept))
            with pytest.raises(JournalCorruptError):
                j.compact(4)
            assert path.read_bytes() == bytes(kept)


class TestFuzzedDamage:
    """Property fuzz of the frame parser: arbitrary byte-level damage.

    Whatever we do to the file — truncate it anywhere, flip bits, splice
    in garbage, zero out a span — replay must land in exactly one of the
    contract's three outcomes: a clean replay, a torn-tail stop at the
    last intact record, or a typed ``JournalError``.  Any other
    exception (``struct.error``, ``UnicodeDecodeError``, ``KeyError``,
    ...) is a crash bug.  When replay *does* return, the records must be
    a verbatim prefix of the originals — damage may lose the tail, but
    it must never invent or reorder records.
    """

    @staticmethod
    def _pristine(tmp, n):
        """``n`` records alternating binary batches and JSON records."""
        path = tmp / "src.wal"
        with WriteAheadJournal(path) as j:
            j.append_many([
                batch(i, rows=1 + i % 3) if i % 2 == 0 else rec(i)
                for i in range(n)
            ])
            original = j.replay()
        return path.read_bytes(), original

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_damage_is_classified_never_a_crash(self, data):
        with tempfile.TemporaryDirectory() as d:
            tmp = pathlib.Path(d)
            n = data.draw(st.integers(min_value=1, max_value=6))
            blob, original = self._pristine(tmp, n)
            kind = data.draw(
                st.sampled_from(["truncate", "flip", "insert", "zero_span"])
            )
            if kind == "truncate":
                cut = data.draw(st.integers(0, len(blob)))
                damaged = blob[:cut]
            elif kind == "flip":
                pos = data.draw(st.integers(0, len(blob) - 1))
                bit = data.draw(st.integers(0, 7))
                damaged = (
                    blob[:pos]
                    + bytes([blob[pos] ^ (1 << bit)])
                    + blob[pos + 1:]
                )
            elif kind == "insert":
                pos = data.draw(st.integers(0, len(blob)))
                junk = bytes(
                    data.draw(
                        st.lists(
                            st.integers(0, 255), min_size=1, max_size=48
                        )
                    )
                )
                damaged = blob[:pos] + junk + blob[pos:]
            else:  # zero_span
                pos = data.draw(st.integers(0, len(blob) - 1))
                span = data.draw(st.integers(1, min(32, len(blob) - pos)))
                damaged = blob[:pos] + b"\x00" * span + blob[pos + span:]

            path = tmp / "damaged.wal"
            path.write_bytes(damaged)
            with WriteAheadJournal(path) as j:
                try:
                    records = j.replay()
                except JournalError:
                    return  # typed classification: acceptable outcome
                # Clean or torn tail: an intact, verbatim prefix.
                assert records == original[: len(records)]
                # A torn tail must be repairable: after trimming, the
                # journal replays the same prefix and accepts appends.
                assert j.truncate_tail() >= 0
                assert j.replay() == records
                j.append(rec(999))

    @given(
        n=st.integers(min_value=1, max_value=5),
        cut_back=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_pure_truncation_is_never_corrupt(self, n, cut_back):
        """A pulled plug only ever shortens the file; that exact damage
        shape must always classify as clean/torn-tail, never corrupt —
        corrupt would page an operator for a routine crash."""
        with tempfile.TemporaryDirectory() as d:
            tmp = pathlib.Path(d)
            blob, original = self._pristine(tmp, n)
            damaged = blob[: max(0, len(blob) - cut_back)]
            path = tmp / "torn.wal"
            path.write_bytes(damaged)
            with WriteAheadJournal(path) as j:
                records = j.replay()  # must NOT raise
                assert records == original[: len(records)]
                assert len(records) < len(original)
