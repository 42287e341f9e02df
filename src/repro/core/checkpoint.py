"""Crash-safe checkpoint/restore for the live fingerprinting service.

A process restart must not lose streaming state: hot/cold thresholds take
days of history to rebuild, the crisis library *is* the method's knowledge,
and a crisis in progress must resume its identification protocol where it
left off.  This module snapshots a
:class:`~repro.core.streaming.StreamingCrisisMonitor` or a
:class:`~repro.core.pipeline.FingerprintPipeline` and restores it to a
bit-identical state: replaying the same epochs after a restore emits
exactly the events an uninterrupted run would.

Method configuration (:class:`~repro.config.FingerprintingConfig`) is
code, not state: the caller passes the same config to ``load_*`` that the
original object was built with.

**Monitor checkpoints are log-structured** (format 2).  Between two saves
almost nothing a monitor holds changes: the threshold window slides by
one epoch per close, and a stored crisis's raw quantile window never
changes (the paper keeps it only to re-fingerprint it, §6.3).  So a
checkpoint at ``path`` is a small *head*, ``path`` itself, plus
append-only *segment* files beside it:

* ``<name>.<g>.e<j>.seg``, epoch segment ``j``: summary rows of the
  threshold window and their anomalous flags.  One segment spans at most
  a quarter of the window's epochs;
* ``<name>.<g>.crises.seg``: the library's quantile windows, in library
  order.

``<name>`` is the head's file name and ``g`` its generation.  Segment
records are framed like the serving journal, ``<u32 length> <u32 crc32>
<payload>``, and hold raw little-endian float64.  Each save

1. appends, once, the rows of the epochs closed since the last save and
   the window of each crisis stored since then, and fsyncs them;
2. atomically rewrites the head (a ``.npz`` with a JSON header, the
   :mod:`repro.persistence` idiom: tmp file + fsync + rename + directory
   fsync).  It holds the header and ``extra``, the thresholds, the
   pre-buffer, the live crisis, discovery and forecast state, and the
   committed length of every segment it names;
3. deletes the epoch segments whose rows have all left the threshold
   window, now that the head no longer names them.

So the bytes a save writes do not grow with the library or the window.
A crash at any point leaves a loadable checkpoint: bytes past a segment's
committed length are the torn tail of an interrupted save, which the
reader ignores and the next save cuts off.  A segment the head names that
is missing, short or fails its CRC is :class:`CheckpointCorruptError`.

A save extends the segments only of a head this monitor wrote or loaded
itself.  Any other save (a monitor's first, one over a format-1 archive,
or over a head another monitor wrote) writes a complete checkpoint under
a new generation and deletes the old generation's segments after the
rename, so the previous checkpoint stays whole until the new one is.
Format-1 monitor archives, a single ``.npz`` holding the window and every
library window, load unchanged; nothing writes them any more.
"""

from __future__ import annotations

import os
import pathlib
import re
import struct
import zlib
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.config import EPOCH_MINUTES, FingerprintingConfig, ReliabilityConfig
# The error types live with the reader; callers import them from here.
from repro.core.atomicio import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointFormatError,
    atomic_write_npz,
    pack_header,
    read_npz,
)
from repro.core.columnar import WindowBlock
from repro.telemetry.epochs import EpochClock
from repro.core.pipeline import FingerprintPipeline, KnownCrisis
from repro.core.streaming import StreamingCrisisMonitor, _LiveCrisis, _StoredCrisis
from repro.core.thresholds import QuantileThresholds

#: Format version of pipeline archives (and of monitor archives before
#: the head and segments split).
CHECKPOINT_FORMAT_VERSION = 1

#: Format version of a monitor head.  Readers of format 1 refuse it with
#: :class:`CheckpointFormatError`, since it holds no window or library.
MONITOR_FORMAT_VERSION = 2

#: Monitor archive formats :func:`load_monitor` reads.
_MONITOR_VERSIONS = (CHECKPOINT_FORMAT_VERSION, MONITOR_FORMAT_VERSION)

#: ``<u32 length> <u32 crc32>`` segment record prefix, as in the journal.
_PREFIX = struct.Struct("<II")
#: An epoch record opens with its first epoch and row count, then one
#: flag byte per row, then the rows; a crisis record with the crisis
#: number and row count, then the rows.
_RECORD_HEAD = struct.Struct("<qI")
_FLOAT = np.dtype("<f8")

#: Members of a head that carry ``extra`` values given as arrays.
_EXTRA_PREFIX = "extra_"


def read_checkpoint_extra(path, expected_kind: str = "monitor") -> dict:
    """The caller-supplied ``extra`` header of a checkpoint archive.

    The serving tier stores its journal cursor (applied sequence number,
    next epoch, agent health) here so a tenant snapshot stays one
    atomic write.  Archives written without ``extra`` return ``{}``.
    """
    with read_npz(path, _MONITOR_VERSIONS, expected_kind) as (header, data):
        return _extra(header, data)


def _extra(header: dict, data) -> dict:
    extra = dict(header.get("extra") or {})
    for key in data.keys():
        if key.startswith(_EXTRA_PREFIX):
            extra[key[len(_EXTRA_PREFIX):]] = data[key]
    return extra


# ---------------------------------------------------------------------------
# Segments
# ---------------------------------------------------------------------------


@dataclass
class _EpochSegment:
    index: int
    size: int  # committed bytes
    first: int  # first epoch written to it
    end: int  # one past its last epoch


@dataclass
class _Segments:
    """The checkpoint a monitor last wrote or loaded, as a save extends it.

    ``head`` identifies the head file (inode, size, mtime) so that a save
    over a head someone else has since replaced starts a new generation.
    """

    path: str
    head: Tuple[int, int, int]
    generation: int
    epochs: List[_EpochSegment] = field(default_factory=list)
    crises: int = 0  # committed bytes of the crisis segment
    n_epochs: int = 0  # epochs the rows reach (the store's length)
    n_library: int = 0  # library windows in the crisis segment

    def names(self, head: pathlib.Path) -> List[pathlib.Path]:
        files = [_epoch_file(head, self.generation, s.index)
                 for s in self.epochs]
        if self.crises:
            files.append(_crisis_file(head, self.generation))
        return files


def _epoch_file(head: pathlib.Path, generation: int, index: int):
    return head.with_name(f"{head.name}.{generation}.e{index}.seg")


def _crisis_file(head: pathlib.Path, generation: int):
    return head.with_name(f"{head.name}.{generation}.crises.seg")


def _segment_files(head: pathlib.Path) -> Iterator[Tuple[pathlib.Path, int]]:
    """Every segment file of ``head`` on disk, with its generation."""
    pattern = re.compile(
        re.escape(head.name) + r"\.(\d+)\.(?:e\d+|crises)\.seg"
    )
    parent = head.parent
    try:
        names = os.listdir(parent)
    except FileNotFoundError:
        return
    for name in names:
        match = pattern.fullmatch(name)
        if match:
            yield parent / name, int(match.group(1))


def _identity(path) -> Tuple[int, int, int]:
    st = os.stat(path)
    return st.st_ino, st.st_size, st.st_mtime_ns


def _frame(*parts) -> List[memoryview]:
    """One record, its payload the concatenation of ``parts`` (bytes or
    C-contiguous arrays), as buffers to write in order."""
    views = [memoryview(part).cast("B") for part in parts]
    crc = 0
    for view in views:
        crc = zlib.crc32(view, crc)
    length = sum(view.nbytes for view in views)
    return [memoryview(_PREFIX.pack(length, crc)), *views]


def _append(file: pathlib.Path, size: int, buffers: List[memoryview]) -> int:
    """Write ``buffers`` at byte ``size`` of ``file``, cutting off any
    torn tail past it, and fsync; returns the new committed size."""
    fd = os.open(file, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        os.ftruncate(fd, size)
        for view in buffers:
            while view:
                written = os.pwrite(fd, view, size)
                view = view[written:]
                size += written
        os.fsync(fd)
    finally:
        os.close(fd)
    return size


def _continued(
    monitor: StreamingCrisisMonitor, path: pathlib.Path
) -> Optional[_Segments]:
    """The monitor's checkpoint bookkeeping, if a save to ``path`` can
    extend it: the head on disk is the one it wrote or loaded, and the
    segments it appends to are still whole."""
    log = monitor._persisted
    if (
        log is None
        or log.path != os.path.abspath(path)
        or log.n_epochs > len(monitor.store)
        or log.n_library > len(monitor._library)
    ):
        return None
    try:
        if _identity(path) != log.head:
            return None
        if log.epochs and os.stat(_epoch_file(
            path, log.generation, log.epochs[-1].index
        )).st_size < log.epochs[-1].size:
            return None
        if log.crises and os.stat(
            _crisis_file(path, log.generation)
        ).st_size < log.crises:
            return None
    except OSError:
        return None
    return replace(log, epochs=[replace(s) for s in log.epochs])


def _append_epochs(
    path: pathlib.Path, log: _Segments, monitor: StreamingCrisisMonitor
) -> None:
    """Append the window rows the segments do not hold yet."""
    store = monitor.store
    t = len(store)
    since = max(log.n_epochs, t - min(t, monitor.engine.window_epochs))
    if since >= t:
        return
    values = store.values(since)
    flags = store.anomalous_mask(since).astype(np.uint8)
    # Spans derive from the window: at most a quarter of it per segment,
    # so the segments on disk hold at most 1.25 windows of rows.
    span = -(-monitor.engine.window_epochs // 4)
    frames: Dict[int, List[memoryview]] = {}
    at = since
    while at < t:
        last = log.epochs[-1] if log.epochs else None
        if last is None or at >= last.first + span:
            last = _EpochSegment(
                index=0 if last is None else last.index + 1,
                size=0, first=at, end=at,
            )
            log.epochs.append(last)
        stop = min(t, last.first + span)
        rows = slice(at - since, stop - since)
        frames.setdefault(last.index, []).extend(_frame(
            _RECORD_HEAD.pack(at, stop - at),
            flags[rows],
            np.ascontiguousarray(values[rows], dtype=_FLOAT),
        ))
        last.end = stop
        at = stop
    for seg in log.epochs:
        if seg.index in frames:
            seg.size = _append(
                _epoch_file(path, log.generation, seg.index),
                seg.size, frames[seg.index],
            )
    log.n_epochs = t


def _append_crises(
    path: pathlib.Path, log: _Segments, library: List[_StoredCrisis]
) -> None:
    """Append the windows of the crises stored since the last save."""
    if log.n_library >= len(library):
        return
    frames = [
        view
        for s in library[log.n_library:]
        for view in _frame(
            _RECORD_HEAD.pack(s.number, len(s.quantile_window)),
            np.ascontiguousarray(s.quantile_window, dtype=_FLOAT),
        )
    ]
    log.crises = _append(
        _crisis_file(path, log.generation), log.crises, frames
    )
    log.n_library = len(library)


def _read_segment(file: pathlib.Path, size: int) -> bytearray:
    """The committed bytes of a named segment, each record CRC-checked."""
    buf = bytearray(size)
    try:
        with open(file, "rb") as fh:
            got = fh.readinto(buf)
    except OSError as exc:
        raise CheckpointCorruptError(
            f"segment {file.name} cannot be read: {exc}"
        ) from exc
    if got < size:
        raise CheckpointCorruptError(
            f"segment {file.name} holds {got} of its {size} committed bytes"
        )
    return buf


def _records(buf: bytearray, file: pathlib.Path) -> Iterator[Tuple[int, int]]:
    """``(offset, length)`` of each record payload in committed bytes."""
    view = memoryview(buf)
    at = 0
    while at < len(buf):
        if at + _PREFIX.size > len(buf):
            raise CheckpointCorruptError(
                f"segment {file.name} has a short record prefix at {at}"
            )
        length, crc = _PREFIX.unpack_from(buf, at)
        start = at + _PREFIX.size
        at = start + length
        if (
            length < _RECORD_HEAD.size
            or at > len(buf)
            or zlib.crc32(view[start:at]) != crc
        ):
            raise CheckpointCorruptError(
                f"segment {file.name} record at {start - _PREFIX.size} "
                "fails its length or CRC"
            )
        yield start, length


def _rows(buf, offset: int, n: int, shape: Tuple[int, int]) -> np.ndarray:
    return np.frombuffer(
        buf, dtype=_FLOAT, count=n * shape[0] * shape[1], offset=offset
    ).reshape(n, *shape)


def _read_epochs(
    path: pathlib.Path, listing, generation: int, shape: Tuple[int, int]
) -> Tuple[List[_EpochSegment], List[Tuple[int, np.ndarray, np.ndarray]]]:
    """The named epoch segments and their records ``(first, rows,
    flags)``, oldest first."""
    row_bytes = 1 + shape[0] * shape[1] * _FLOAT.itemsize
    segments, records = [], []
    end = 0
    for index, size in listing:
        file = _epoch_file(path, generation, int(index))
        buf = _read_segment(file, int(size))
        seg = _EpochSegment(index=int(index), size=int(size), first=-1,
                            end=-1)
        for start, length in _records(buf, file):
            first, n = _RECORD_HEAD.unpack_from(buf, start)
            body = start + _RECORD_HEAD.size
            if (
                first < end
                or n < 1
                or length != _RECORD_HEAD.size + n * row_bytes
            ):
                raise CheckpointCorruptError(
                    f"segment {file.name} holds a malformed record of "
                    f"epochs {first}..{first + n}"
                )
            flags = np.frombuffer(buf, dtype=np.uint8, count=n, offset=body)
            if (flags > 1).any():
                raise CheckpointCorruptError(
                    f"segment {file.name} has a flag that is not 0 or 1"
                )
            records.append(
                (first, _rows(buf, body + n, n, shape), flags.astype(bool))
            )
            if seg.first < 0:
                seg.first = first
            seg.end = end = first + n
        if seg.first < 0:
            raise CheckpointCorruptError(f"segment {file.name} is empty")
        segments.append(seg)
    return segments, records


def _window_rows(
    path, records, epochs: int, window: int, shape: Tuple[int, int]
) -> Tuple[np.ndarray, np.ndarray]:
    """The rows and flags of the last ``min(epochs, window)`` epochs."""
    end = records[-1][0] + len(records[-1][1]) if records else 0
    if end != epochs:
        raise CheckpointCorruptError(
            f"{path} segments end at epoch {end}, its head at {epochs}"
        )
    need = min(epochs, window)
    taken: List[Tuple[int, np.ndarray, np.ndarray]] = []
    covered, at = 0, epochs
    for first, rows, flags in reversed(records):
        if covered >= need or first + len(rows) != at:
            break
        taken.append((first, rows, flags))
        covered += len(rows)
        at = first
    if covered < need:
        raise CheckpointFormatError(
            f"{path} holds {covered} epochs of history; a {window}-epoch "
            f"threshold window needs {need} (was it saved with a smaller "
            "window_days?)"
        )
    if not taken:
        return np.empty((0, *shape)), np.empty(0, dtype=bool)
    values = np.concatenate([rows for _, rows, _ in reversed(taken)])
    flags = np.concatenate([f for _, _, f in reversed(taken)])
    return values[len(values) - need:], flags[len(flags) - need:]


def _read_library(path, size: int, generation: int, library_meta,
                  shape: Tuple[int, int]) -> List[np.ndarray]:
    if not size:
        windows = []
    else:
        file = _crisis_file(path, generation)
        buf = _read_segment(file, size)
        row_bytes = shape[0] * shape[1] * _FLOAT.itemsize
        windows = []
        for start, length in _records(buf, file):
            number, n = _RECORD_HEAD.unpack_from(buf, start)
            i = len(windows)
            if (
                i >= len(library_meta)
                or number != library_meta[i]["number"]
                or length != _RECORD_HEAD.size + n * row_bytes
            ):
                raise CheckpointCorruptError(
                    f"segment {file.name} record {i} is not the window of "
                    "the library's crisis"
                )
            windows.append(
                _rows(buf, start + _RECORD_HEAD.size, n, shape).copy()
            )
    if len(windows) != len(library_meta):
        raise CheckpointCorruptError(
            f"{path} names {len(library_meta)} library windows; its "
            f"segments hold {len(windows)}"
        )
    return windows


def remove_orphan_segments(
    path, monitor: Optional[StreamingCrisisMonitor] = None
) -> int:
    """Delete the segment files beside ``path`` that its head does not
    name; returns how many.

    A save killed before its head rename leaves the segments it started,
    and one killed before its deletes leaves the segments it dropped.
    Only call this where no save to ``path`` can be running, as a serving
    tenant's recovery does.  ``monitor``, when it is the monitor just
    restored from ``path``, names the segments to keep without reading
    the head again.
    """
    path = pathlib.Path(path)
    log = None if monitor is None else monitor._persisted
    if not path.exists():
        log = None
    elif (
        log is None
        or log.path != os.path.abspath(path)
        or _identity(path) != log.head
    ):
        log = None
        with read_npz(path, _MONITOR_VERSIONS, "monitor") as (header, _):
            if header["format_version"] == MONITOR_FORMAT_VERSION:
                seg = header["segments"]
                log = _Segments(
                    path="", head=(0, 0, 0),
                    generation=int(seg["generation"]),
                    epochs=[_EpochSegment(int(j), int(n), 0, 0)
                            for j, n in seg["epochs"]],
                    crises=int(seg["crises"]),
                )
    keep = set() if log is None else set(log.names(path))
    removed = 0
    for file, _ in list(_segment_files(path)):
        if file not in keep:
            file.unlink(missing_ok=True)
            removed += 1
    return removed


# ---------------------------------------------------------------------------
# Streaming monitor
# ---------------------------------------------------------------------------


def save_monitor(
    monitor: StreamingCrisisMonitor, path, extra: Optional[dict] = None
) -> None:
    """Checkpoint a streaming monitor's full state at ``path``.

    Appends what changed since the monitor's last save to the segment
    files beside ``path``, then atomically replaces the head (see the
    module docstring).  ``extra`` is an optional dict stored in the head
    and returned by :func:`read_checkpoint_extra` — the serving tier
    keeps its journal cursor there so snapshot + cursor are one atomic
    write.  Its array values are stored as raw members, the rest as
    JSON.
    """
    path = pathlib.Path(path)
    log = _continued(monitor, path)
    fresh = log is None
    if fresh:
        log = _Segments(
            path=os.path.abspath(path), head=(0, 0, 0),
            generation=1 + max(
                (g for _, g in _segment_files(path)), default=0
            ),
        )
    # 1. Append, once, the new window rows and the new library windows.
    _append_epochs(path, log, monitor)
    _append_crises(path, log, monitor._library)
    # Epoch segments whose rows all left the window drop out of the head.
    start = len(monitor.store) - monitor.engine.window_epochs
    dropped = [s for s in log.epochs if s.end <= start]
    log.epochs = [s for s in log.epochs if s.end > start]

    # 2. Rewrite the head.
    live = monitor._live
    extra = extra or {}
    header = {
        "format_version": MONITOR_FORMAT_VERSION,
        "kind": "monitor",
        "extra": {k: v for k, v in extra.items()
                  if not isinstance(v, np.ndarray)},
        "n_metrics": monitor.n_metrics,
        "n_quantiles": monitor.store.n_quantiles,
        "store_epochs": len(monitor.store),
        "epoch_minutes": monitor.clock.epoch_minutes,
        "threshold_refresh_epochs": monitor.threshold_refresh_epochs,
        "min_history_epochs": monitor.min_history_epochs,
        "epochs_since_refresh": monitor._epochs_since_refresh,
        "crisis_counter": monitor._crisis_counter,
        "untrusted_epochs": monitor.untrusted_epochs,
        "has_thresholds": monitor.thresholds is not None,
        "live": None if live is None else {
            "number": live.number,
            "detected_epoch": live.detected_epoch,
            "identifications": live.identifications,
        },
        "library": [
            {"number": s.number, "label": s.label}
            for s in monitor._library
        ],
        "n_pre_buffer": len(monitor._pre_buffer),
        "segments": {
            "generation": log.generation,
            "epochs": [[s.index, s.size] for s in log.epochs],
            "crises": log.crises,
        },
    }
    embedded: Dict[str, np.ndarray] = {
        _EXTRA_PREFIX + k: v for k, v in extra.items()
        if isinstance(v, np.ndarray)
    }
    # Opt-in discovery state rides inside the head so monitor + engine
    # stay one atomic snapshot.  Checkpoints written without an engine
    # (including every pre-discovery archive) omit the key.
    if monitor._discovery is not None:
        header["discovery"], disc_arrays = monitor._discovery.snapshot(
            prefix="discovery_"
        )
        embedded.update(disc_arrays)
    # Forecast state follows the same embedding contract: absent key for
    # every checkpoint written without an engine (pre-forecast archives
    # load unchanged), atomic with the monitor otherwise.
    if monitor._forecast is not None:
        header["forecast"], fc_arrays = monitor._forecast.snapshot(
            prefix="forecast_"
        )
        embedded.update(fc_arrays)
    # The header is complete now; encode it once.
    arrays: Dict[str, np.ndarray] = {
        "header": pack_header(header),
        "relevant": np.asarray(monitor.relevant, dtype=int),
        **embedded,
    }
    if monitor.thresholds is not None:
        arrays["thresholds_cold"] = monitor.thresholds.cold
        arrays["thresholds_hot"] = monitor.thresholds.hot
    if monitor._pre_buffer:
        arrays["pre_buffer"] = np.stack(monitor._pre_buffer)
    if live is not None and live.summaries is not None and len(live.summaries):
        arrays["live_summaries"] = live.summaries.snapshot()
    atomic_write_npz(path, arrays)
    log.head = _identity(path)
    monitor._persisted = log

    # 3. The head names their successors: drop what it no longer names.
    for seg in dropped:
        _epoch_file(path, log.generation, seg.index).unlink(missing_ok=True)
    if fresh:
        remove_orphan_segments(path, monitor)


def load_monitor(
    path,
    config: FingerprintingConfig = FingerprintingConfig(),
    reliability: ReliabilityConfig = ReliabilityConfig(),
) -> StreamingCrisisMonitor:
    """Restore a monitor saved by :func:`save_monitor`.

    ``config`` and ``reliability`` must match the original monitor's; they
    are code-side parameters and are not serialized.  The checkpoint
    holds the original threshold window of history (and, between segment
    drops, a little more), so a ``config`` whose window needs more rows
    than it holds raises :class:`CheckpointFormatError` rather than
    restoring thresholds over a shorter window than an uninterrupted run
    would use.

    A damaged head or segment raises :class:`CheckpointCorruptError`
    (never a raw ``KeyError``/``zipfile``/``OSError``), so a caller
    holding older snapshots can fall back instead of crashing.  Format-1
    archives load as they always did.
    """
    return load_monitor_and_extra(path, config, reliability)[0]


def load_monitor_and_extra(
    path,
    config: FingerprintingConfig = FingerprintingConfig(),
    reliability: ReliabilityConfig = ReliabilityConfig(),
) -> Tuple[StreamingCrisisMonitor, dict]:
    """:func:`load_monitor` plus the head's ``extra`` (what
    :func:`read_checkpoint_extra` would return), from one open and one
    decode of the head.
    """
    path = pathlib.Path(path)
    with read_npz(path, _MONITOR_VERSIONS, "monitor") as (header, data):
        monitor = StreamingCrisisMonitor(
            n_metrics=header["n_metrics"],
            relevant_metrics=data["relevant"],
            config=config,
            threshold_refresh_epochs=header["threshold_refresh_epochs"],
            min_history_epochs=header["min_history_epochs"],
            reliability=reliability,
            # Pre-engine checkpoints carry no clock; they were written
            # at the paper's 15-minute epochs.
            clock=EpochClock(
                epoch_minutes=header.get("epoch_minutes", EPOCH_MINUTES)
            ),
        )
        window = monitor.engine.window_epochs
        if header["format_version"] == CHECKPOINT_FORMAT_VERSION:
            library = _load_v1_history(path, header, data, monitor, window)
        else:
            library = _load_segments(path, header, monitor, window)
        if header["has_thresholds"]:
            monitor.thresholds = QuantileThresholds(
                cold=data["thresholds_cold"], hot=data["thresholds_hot"]
            )
        monitor._epochs_since_refresh = header["epochs_since_refresh"]
        monitor._crisis_counter = header["crisis_counter"]
        monitor.untrusted_epochs = header["untrusted_epochs"]
        if header["n_pre_buffer"]:
            monitor._pre_buffer = list(data["pre_buffer"])
        live_meta = header["live"]
        if live_meta is not None:
            live = _LiveCrisis(
                number=live_meta["number"],
                detected_epoch=live_meta["detected_epoch"],
            )
            if "live_summaries" in data:
                live.summaries = WindowBlock.from_array(
                    data["live_summaries"]
                )
            live.identifications = live_meta["identifications"]
            monitor._live = live
        monitor._library = [
            _StoredCrisis(
                number=meta["number"], label=meta["label"],
                quantile_window=window_i,
            )
            for meta, window_i in zip(header["library"], library)
        ]
        disc_header = header.get("discovery")
        if disc_header is not None:
            # Lazy import: repro.discovery depends on this module's
            # siblings, so the package import stays one-directional.
            from repro.discovery.engine import DiscoveryEngine

            engine = DiscoveryEngine.from_snapshot(
                disc_header, data, prefix="discovery_"
            )
            engine.attach(monitor)
        fc_header = header.get("forecast")
        if fc_header is not None:
            from repro.forecast.engine import ForecastEngine

            forecast = ForecastEngine.from_snapshot(
                fc_header, data, prefix="forecast_"
            )
            forecast.attach(monitor)
        extra = _extra(header, data)
    if monitor._persisted is not None:
        try:
            monitor._persisted.head = _identity(path)
        except OSError as exc:
            raise CheckpointCorruptError(f"{path} vanished: {exc}") from exc
    return monitor, extra


def _load_v1_history(path, header, data, monitor, window) -> List[np.ndarray]:
    """Prime a format-1 archive's window; returns its library windows."""
    # The tracker's sorted heads and tails are derived state: prime
    # them from the stored window rather than serializing them.
    # Archives without ``store_epochs`` hold the full history.
    values = data["store_values"]
    epochs = header.get("store_epochs", values.shape[0])
    if values.shape[0] < min(epochs, window):
        raise CheckpointFormatError(
            f"{path} holds {values.shape[0]} epochs of history; a "
            f"{window}-epoch threshold window needs "
            f"{min(epochs, window)} (was it saved with a smaller "
            "window_days?)"
        )
    monitor.store.prime(values, data["store_anomalous"], epochs)
    # Archives written while the monitor cached per-slot indexes also
    # hold ``index_slots`` and ``index_slot{k}_*``: derived state, so
    # it is ignored.
    return [
        data[f"library_window_{i}"] for i in range(len(header["library"]))
    ]


def _load_segments(path, header, monitor, window) -> List[np.ndarray]:
    """Prime a format-2 head's window from its segments and record them
    as the monitor's checkpoint bookkeeping; returns the library
    windows."""
    seg = header["segments"]
    generation = seg["generation"]
    epochs = header["store_epochs"]
    shape = (monitor.n_metrics, monitor.store.n_quantiles)
    segments, records = _read_epochs(path, seg["epochs"], generation, shape)
    values, flags = _window_rows(path, records, epochs, window, shape)
    monitor.store.prime(values, flags, epochs)
    library = _read_library(
        path, seg["crises"], generation, header["library"], shape
    )
    monitor._persisted = _Segments(
        path=os.path.abspath(path), head=(0, 0, 0), generation=generation,
        epochs=segments, crises=seg["crises"], n_epochs=epochs,
        n_library=len(library),
    )
    return library


# ---------------------------------------------------------------------------
# Replay pipeline
# ---------------------------------------------------------------------------


def save_pipeline(pipeline: FingerprintPipeline, path) -> None:
    """Snapshot a replay pipeline's parameter and library state.

    The trace itself is not serialized (it has its own persistence,
    :mod:`repro.persistence`); :func:`load_pipeline` reattaches one.
    """
    header = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "kind": "pipeline",
        "recompute_past_fingerprints": pipeline.recompute_past_fingerprints,
        "exclude_kpis_from_selection": bool(pipeline._selection_exclude),
        "identification_threshold": pipeline.identification_threshold,
        "has_thresholds": pipeline.thresholds is not None,
        "has_relevant": pipeline.relevant is not None,
        "n_selections": len(pipeline._selections),
        "known": [
            {
                "crisis_id": k.crisis_id,
                "label": k.label,
                "detection_epoch": k.detection_epoch,
                "has_fingerprint": k.fingerprint is not None,
            }
            for k in pipeline.known
        ],
    }
    arrays: Dict[str, np.ndarray] = {"header": pack_header(header)}
    if pipeline.thresholds is not None:
        arrays["thresholds_cold"] = pipeline.thresholds.cold
        arrays["thresholds_hot"] = pipeline.thresholds.hot
    if pipeline.relevant is not None:
        arrays["relevant"] = np.asarray(pipeline.relevant, dtype=int)
    for i, sel in enumerate(pipeline._selections):
        arrays[f"selection_{i}"] = np.asarray(sel, dtype=int)
    for i, k in enumerate(pipeline.known):
        arrays[f"known_window_{i}"] = k.quantile_window
        arrays[f"known_stale_{i}"] = k.stale_summary
        if k.fingerprint is not None:
            arrays[f"known_fingerprint_{i}"] = k.fingerprint
    atomic_write_npz(path, arrays)


def load_pipeline(
    path,
    trace,
    config: FingerprintingConfig = FingerprintingConfig(),
) -> FingerprintPipeline:
    """Restore a pipeline saved by :func:`save_pipeline` onto ``trace``."""
    with read_npz(path, CHECKPOINT_FORMAT_VERSION, "pipeline") as (
        header, data
    ):
        pipeline = FingerprintPipeline(
            trace,
            config,
            recompute_past_fingerprints=header[
                "recompute_past_fingerprints"
            ],
            exclude_kpis_from_selection=header[
                "exclude_kpis_from_selection"
            ],
        )
        if header["has_thresholds"]:
            pipeline.thresholds = QuantileThresholds(
                cold=data["thresholds_cold"], hot=data["thresholds_hot"]
            )
        if header["has_relevant"]:
            pipeline.relevant = data["relevant"]
        pipeline.identification_threshold = header[
            "identification_threshold"
        ]
        pipeline._selections = [
            data[f"selection_{i}"] for i in range(header["n_selections"])
        ]
        for i, meta in enumerate(header["known"]):
            known = KnownCrisis(
                crisis_id=meta["crisis_id"],
                label=meta["label"],
                detection_epoch=meta["detection_epoch"],
                quantile_window=data[f"known_window_{i}"],
                stale_summary=data[f"known_stale_{i}"],
            )
            if meta["has_fingerprint"]:
                known.fingerprint = data[f"known_fingerprint_{i}"]
            pipeline.known.append(known)
    return pipeline


__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "CheckpointCorruptError",
    "CheckpointError",
    "CheckpointFormatError",
    "MONITOR_FORMAT_VERSION",
    "load_monitor",
    "load_monitor_and_extra",
    "load_pipeline",
    "read_checkpoint_extra",
    "remove_orphan_segments",
    "save_monitor",
    "save_pipeline",
]
