"""Per-tenant write-ahead journal: append + fsync before ack.

The durability contract of the serving tier: a report is acknowledged
only after its journal record has reached disk, so a ``kill -9`` at any
instant loses *at most* unacked work — the client's
resend-on-reconnect (:mod:`repro.serving.loadgen`) then re-delivers it.

Record framing is ``<u32 length> <u32 crc32> <payload>`` (little
endian).  The payload's first byte says how it is encoded:

* ``{`` — compact JSON of the whole record, sequence number included
  (``close_epoch``, ``diagnose``, and every record of older journals);
* ``0x01`` — a ``report_batch``: ``<u8 0x01> <u32 header length>``,
  the header (compact JSON of every field except ``values``, ``seq``
  included), then the ``len(machines) × k`` value matrix as raw
  little-endian float64.  Both encodings round-trip a float exactly,
  so replay hands back the same record dict either way; the binary one
  costs a memory copy instead of a ``repr`` per value.

The CRC plus length prefix makes every torn-write mode detectable on
replay:

* a tail cut mid-payload (pulled plug) fails the length or CRC check —
  replay stops at the last intact record and :meth:`~WriteAheadJournal.truncate_tail`
  trims the garbage;
* a failed append (e.g. ``ENOSPC``) is rolled back by truncating the
  file to its pre-append size, so the journal never holds a half batch;
* a payload that passes its CRC but does not decode (unknown tag, bad
  JSON, a header or value block of the wrong size) is
  :class:`JournalCorruptError`.

Group commit: :meth:`~WriteAheadJournal.append_many` encodes a whole
batch, then writes it and fsyncs **once**, which is what makes the
journal-per-report discipline affordable (see
``benchmarks/test_serving_ingest.py``).

After a checkpoint the applied prefix is dead weight;
:meth:`~WriteAheadJournal.compact` rewrites the journal atomically
(tmp + fsync + rename + dir fsync, the :mod:`repro.core.atomicio`
discipline) keeping only records past the checkpoint cursor.  The
survivors are a byte suffix of the file, copied verbatim: compaction
reads record headers, never re-encodes a record.  The journal keeps the
sequence number and end offset of every intact record (one scan when it
opens an existing file, then extended by each append), so compaction
finds its cut by bisection and reads and CRC-checks only the suffix it
keeps.
"""

from __future__ import annotations

import bisect
import json
import os
import pathlib
import struct
import tempfile
import zlib
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.atomicio import fsync_dir

#: ``<u32 length> <u32 crc32>`` record prefix.
_PREFIX = struct.Struct("<II")

#: ``<u8 tag> <u32 header length>`` opening a binary ``report_batch``.
_BATCH_HEAD = struct.Struct("<cI")
_BATCH_TAG = b"\x01"
_FLOAT = np.dtype("<f8")

#: Sanity cap on a single record; a length field beyond this is garbage,
#: not a record (protects replay from allocating absurd buffers).
MAX_RECORD_BYTES = 16 << 20


class JournalError(ValueError):
    """Base class for journal failures."""


class JournalCorruptError(JournalError):
    """A record that should be intact (not the tail) failed validation."""


class JournalTornWrite(JournalError):
    """An append was cut short mid-record (chaos mid-write kill).

    The in-process stand-in for dying inside ``write(2)``: the journal
    holds a torn tail exactly as a pulled plug would leave it, and the
    server must treat the process as dead (exit) rather than ack.
    """


def _json(obj) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode("utf-8")


def _batch_payload(record: dict) -> bytes:
    """A ``report_batch`` as tag + JSON header + raw float64 matrix.

    Raises ``ValueError`` unless ``values`` is a ``len(machines) × k``
    matrix of floats (``k ≥ 1``).
    """
    machines = record.get("machines")
    try:
        matrix = np.asarray(record["values"], dtype=_FLOAT)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(
            f"report_batch values are not a float matrix: {exc!r}"
        ) from exc
    if (
        not isinstance(machines, list)
        or matrix.ndim != 2
        or matrix.shape[0] != len(machines)
        or matrix.size == 0
    ):
        raise ValueError(
            f"report_batch values of shape {matrix.shape} are not a "
            "non-empty len(machines) x k matrix"
        )
    head = _json({k: v for k, v in record.items() if k != "values"})
    return _BATCH_HEAD.pack(_BATCH_TAG, len(head)) + head + matrix.tobytes()


def _frame(record: dict) -> bytes:
    if record.get("op") == "report_batch":
        payload = _batch_payload(record)
    else:
        payload = _json(record)
    return _PREFIX.pack(len(payload), zlib.crc32(payload)) + payload


def _decode(payload: bytes, values: bool) -> dict:
    """One CRC-intact payload back to its record.

    With ``values=False`` a binary ``report_batch`` is checked but its
    value block is not decoded, and the record carries no ``values``.
    Raises ``ValueError`` on a payload that does not decode.
    """
    if payload[:1] == b"{":
        return json.loads(payload.decode("utf-8"))
    if payload[:1] != _BATCH_TAG:
        raise ValueError(f"unknown payload tag {payload[:1]!r}")
    if len(payload) < _BATCH_HEAD.size:
        raise ValueError("binary record shorter than its header prefix")
    _, head_len = _BATCH_HEAD.unpack_from(payload)
    start = _BATCH_HEAD.size + head_len
    if start > len(payload):
        raise ValueError("header runs past the payload")
    record = json.loads(payload[_BATCH_HEAD.size:start].decode("utf-8"))
    machines = record.get("machines") if isinstance(record, dict) else None
    if not isinstance(machines, list) or not machines:
        raise ValueError("header carries no machines")
    block = len(payload) - start
    if block == 0 or block % (_FLOAT.itemsize * len(machines)):
        raise ValueError(
            f"{block}-byte value block is not {len(machines)} rows of "
            "float64"
        )
    if values:
        record["values"] = (
            np.frombuffer(payload, dtype=_FLOAT, offset=start)
            .reshape(len(machines), -1)
            .tolist()
        )
    return record


class WriteAheadJournal:
    """Append-only, CRC-framed, fsync-on-commit record log.

    ``write_hook`` is the chaos seam: called with each encoded frame
    before it is written, it may raise ``OSError`` (disk full — the
    append is rolled back) or return a truncated prefix of the frame
    (torn write — the truncated bytes are written and
    :class:`JournalTornWrite` raised, leaving the on-disk state a crash
    would).  ``None`` (the default) writes frames verbatim.

    ``fence_check`` is the split-brain seam: called before any byte of
    a batch is written, it raises
    :class:`~repro.serving.fencing.StaleFencingToken` when this node
    has been superseded by a newer fencing epoch — a fenced node can
    never journal (and therefore never ack) again, no matter which code
    path reached the append.
    """

    def __init__(
        self,
        path,
        write_hook: Optional[Callable[[bytes], Optional[bytes]]] = None,
        fence_check: Optional[Callable[[], None]] = None,
    ):
        self.path = pathlib.Path(path)
        self.write_hook = write_hook
        self.fence_check = fence_check
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "ab")
        self._last_seq: Optional[int] = None
        # Seq (0 for none) and end offset of every intact record, in file
        # order; None until the first scan of the file.
        self._seqs: Optional[List[int]] = None
        self._ends: List[int] = []

    # -- write path --------------------------------------------------------

    def _index(self) -> List[int]:
        """The record seqs, scanning the file on first use."""
        if self._seqs is None:
            self._seqs, self._ends = [], []
            for record, end in self._scan(values=False):
                self._seqs.append(record.get("seq", 0))
                self._ends.append(end)
        return self._seqs

    @property
    def last_seq(self) -> int:
        """Highest sequence number ever journaled (0 when empty)."""
        if self._last_seq is None:
            self._last_seq = next(
                (seq for seq in reversed(self._index()) if seq), 0
            )
        return self._last_seq

    def reserve_seq(self, floor: int) -> None:
        """Never assign sequence numbers at or below ``floor``.

        Recovery seeds this with the checkpoint's ``applied_seq``: after
        a compaction-to-empty plus restart the file alone no longer
        remembers how far numbering got, and reusing old seqs would make
        the next replay skip freshly acked records.
        """
        if floor > self.last_seq:
            self._last_seq = floor

    def append_many(self, records: List[dict]) -> List[int]:
        """Journal a batch durably: one write span, one fsync.

        Sequence numbers are assigned here (``last_seq + 1`` onward),
        embedded in each encoded record, and set on the caller's dicts
        once the batch is written.  The whole batch is encoded before
        its first byte is written, so a record that cannot be encoded
        (``TypeError``, or ``ValueError`` for a ``report_batch`` whose
        values are not a matrix) leaves the file, the sequence numbering
        and the dicts untouched.  On a write failure the file is
        truncated back to its pre-batch size — the journal never exposes
        a half-committed batch.
        """
        if not records:
            return []
        if self.fence_check is not None:
            self.fence_check()
        index = self._index()
        first = self.last_seq + 1
        seqs = list(range(first, first + len(records)))
        frames = [
            _frame({**record, "seq": seq})
            for record, seq in zip(records, seqs)
        ]
        start = self._fh.tell()
        written = len(frames)
        try:
            for i, frame in enumerate(frames):
                if self.write_hook is not None:
                    replacement = self.write_hook(frame)
                    if replacement is not None:
                        # Torn write: persist the damage, then die.
                        self._fh.write(replacement)
                        written = i
                        break
                self._fh.write(frame)
            self._fh.flush()
            os.fsync(self._fh.fileno())
        except OSError:
            # Disk full (or any write error): roll the batch back so the
            # journal stays a clean sequence of intact records.  The
            # BufferedWriter may still hold frames a failed flush never
            # delivered — close it (dropping that buffer) and reopen on
            # a fresh handle, so rolled-back bytes can never leak into
            # the file after the truncation below.
            try:
                self._fh.close()
            except OSError:
                pass
            fd = os.open(self.path, os.O_WRONLY)
            try:
                os.ftruncate(fd, start)
                os.fsync(fd)
            finally:
                os.close(fd)
            self._fh = open(self.path, "ab")
            raise
        for record, seq in zip(records[:written], seqs):
            record["seq"] = seq
        end = start
        for frame, seq in zip(frames[:written], seqs):
            end += len(frame)
            index.append(seq)
            self._ends.append(end)
        if written < len(frames):
            self._last_seq = seqs[written] - 1
            raise JournalTornWrite(
                f"append of seq {seqs[written]} was cut short mid-record"
            )
        self._last_seq = seqs[-1]
        return seqs

    def append(self, record: dict) -> int:
        """Journal one record durably; returns its sequence number."""
        return self.append_many([record])[0]

    # -- read path ---------------------------------------------------------

    def _scan(
        self, values: bool = True, start: int = 0
    ) -> Iterator[Tuple[dict, int]]:
        """Yield ``(record, end_offset)`` for every intact record from
        byte ``start`` (a record boundary) on.

        Stops silently at a torn tail (short prefix, short payload, or
        CRC mismatch *at the end of the file* — the shape a crash
        leaves); damage followed by more bytes, and a CRC-intact
        payload that does not decode, are corruption, raised as
        :class:`JournalCorruptError`.  ``values=False`` leaves the value
        block of binary records undecoded (scans that need only seqs
        and offsets).
        """
        self._fh.flush()
        with open(self.path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            offset = fh.seek(start)
            while True:
                prefix = fh.read(_PREFIX.size)
                if len(prefix) < _PREFIX.size:
                    if prefix and offset + len(prefix) < size:
                        raise JournalCorruptError(
                            f"undersized record prefix at offset {offset}"
                        )
                    return
                length, crc = _PREFIX.unpack(prefix)
                tail_end = offset + _PREFIX.size + length
                if length > MAX_RECORD_BYTES:
                    raise JournalCorruptError(
                        f"implausible record length {length} at offset "
                        f"{offset}"
                    )
                payload = fh.read(length)
                damaged = (
                    len(payload) < length or zlib.crc32(payload) != crc
                )
                if damaged:
                    if tail_end >= size:
                        return  # torn tail: the crash signature
                    raise JournalCorruptError(
                        f"record at offset {offset} fails its CRC but is "
                        "not the tail"
                    )
                try:
                    record = _decode(payload, values)
                except ValueError as exc:
                    raise JournalCorruptError(
                        f"record at offset {offset} passed CRC but does "
                        f"not decode: {exc}"
                    ) from exc
                offset = tail_end
                yield record, offset

    def replay(self, after_seq: int = 0) -> List[dict]:
        """All intact records with ``seq > after_seq``, in order."""
        return [
            record
            for record, _ in self._scan()
            if record.get("seq", 0) > after_seq
        ]

    def valid_size(self) -> int:
        """Byte length of the intact record prefix of the file."""
        end = 0
        for _, end in self._scan(values=False):
            pass
        return end

    def truncate_tail(self) -> int:
        """Trim a torn tail; returns how many bytes were dropped."""
        keep = self.valid_size()
        self._fh.flush()
        size = os.fstat(self._fh.fileno()).st_size
        if size > keep:
            os.ftruncate(self._fh.fileno(), keep)
            self._fh.seek(keep)
        return size - keep

    # -- maintenance -------------------------------------------------------

    def compact(self, applied_seq: int) -> int:
        """Drop records with ``seq <= applied_seq``; returns records kept.

        Seqs only grow along the file, so the survivors are the byte
        range from the first record past ``applied_seq`` to the end of
        the intact prefix; it is copied verbatim (a torn tail is left
        behind).  The rewrite is atomic (tmp + fsync + rename + dir
        fsync): a crash mid-compaction leaves the full journal, never a
        torn one.  Called after a successful checkpoint, whose cursor
        makes the applied prefix redundant.
        """
        seqs = self._index()
        first = bisect.bisect_right(seqs, applied_seq)
        cut = self._ends[first - 1] if first else 0
        # Re-read only the suffix, so a damaged record is never copied.
        kept_seqs, kept_ends = [], []
        for record, end in self._scan(values=False, start=cut):
            kept_seqs.append(record.get("seq", 0))
            kept_ends.append(end - cut)
        end = cut + kept_ends[-1] if kept_ends else cut
        fd, tmp = tempfile.mkstemp(
            dir=self.path.parent, suffix=".wal.tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                with open(self.path, "rb") as src:
                    src.seek(cut)
                    fh.write(src.read(end - cut))
                fh.flush()
                os.fsync(fh.fileno())
            self._fh.close()
            os.replace(tmp, self.path)
            self._seqs, self._ends = kept_seqs, kept_ends
            fsync_dir(self.path.parent)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        finally:
            if self._fh.closed:
                self._fh = open(self.path, "ab")
        return len(kept_seqs)

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "WriteAheadJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


__all__ = [
    "JournalCorruptError",
    "JournalError",
    "JournalTornWrite",
    "MAX_RECORD_BYTES",
    "WriteAheadJournal",
]
