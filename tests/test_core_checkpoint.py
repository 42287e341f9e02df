"""Tests for crash-safe checkpoint/restore of the live service.

The load-bearing property: killing the service mid-crisis and resuming
from the last checkpoint must replay to *bit-identical* events — same
detections, same identification labels and distances, same crisis ends —
as a run that was never interrupted.
"""

import json
import os
import zipfile

import numpy as np
import pytest

from repro.config import (
    DiscoveryConfig,
    FingerprintingConfig,
    ForecastConfig,
    ReliabilityConfig,
    SelectionConfig,
    ThresholdConfig,
)
from repro.core import checkpoint
from repro.core.atomicio import pack_header, unpack_header
from repro.core.checkpoint import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointFormatError,
    load_monitor,
    load_pipeline,
    read_checkpoint_extra,
    save_monitor,
    save_pipeline,
)
from repro.core.pipeline import FingerprintPipeline
from repro.core.streaming import (
    CrisisDetected,
    CrisisEnded,
    StreamingCrisisMonitor,
)
from repro.discovery import DiscoveryEngine
from repro.forecast import ForecastEngine
from repro.index import BruteForceIndex
from repro.index.snapshot import index_to_arrays
from tests.test_archive_loaders import (
    compress_types,
    read_segments,
    write_deflated,
)
from tests.test_index_backends import as_kdtree_header

CONFIG = FingerprintingConfig(
    selection=SelectionConfig(n_relevant=20),
    thresholds=ThresholdConfig(window_days=30),
)
RELIABILITY = ReliabilityConfig(coverage_floor=0.5)


def make_monitor(small_trace):
    return StreamingCrisisMonitor(
        n_metrics=small_trace.n_metrics,
        relevant_metrics=list(range(12)),
        config=CONFIG,
        threshold_refresh_epochs=96,
        min_history_epochs=96 * 7,
        reliability=RELIABILITY,
    )


def save_monitor_v1(monitor, path, extra=None):
    """Write ``monitor`` as a format-1 archive, the one ``.npz`` every
    monitor checkpoint was before the head and segments split: the window
    (``store_values``/``store_anomalous``) and every library window
    (``library_window_{i}``) are members.  Written through ``np.savez``,
    so :func:`write_deflated` gives the deflated form."""
    live = monitor._live
    header = {
        "format_version": 1,
        "kind": "monitor",
        "extra": extra or {},
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
    }
    embedded = {}
    if monitor._discovery is not None:
        header["discovery"], arrays = monitor._discovery.snapshot(
            prefix="discovery_"
        )
        embedded.update(arrays)
    if monitor._forecast is not None:
        header["forecast"], arrays = monitor._forecast.snapshot(
            prefix="forecast_"
        )
        embedded.update(arrays)
    arrays = {
        "header": pack_header(header),
        "relevant": np.asarray(monitor.relevant, dtype=int),
        "store_values": monitor.store.values(),
        "store_anomalous": monitor.store.anomalous_mask(),
        **embedded,
    }
    if monitor.thresholds is not None:
        arrays["thresholds_cold"] = monitor.thresholds.cold
        arrays["thresholds_hot"] = monitor.thresholds.hot
    if monitor._pre_buffer:
        arrays["pre_buffer"] = np.stack(monitor._pre_buffer)
    if live is not None and live.summaries is not None and len(live.summaries):
        arrays["live_summaries"] = live.summaries.snapshot()
    for i, stored in enumerate(monitor._library):
        arrays[f"library_window_{i}"] = stored.quantile_window
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def replay(monitor, trace, start, stop, diagnose=True):
    """Drive the monitor over trace epochs [start, stop); collect events."""
    frac = trace.kpi_violation_fraction.max(axis=1)
    events = []
    for epoch in range(start, stop):
        for event in monitor.ingest(trace.quantiles[epoch],
                                    float(frac[epoch])):
            events.append(event)
            if diagnose and isinstance(event, CrisisEnded):
                monitor.diagnose(event.crisis_number,
                                 f"T{event.crisis_number % 4}")
    return events


@pytest.fixture(scope="module")
def uninterrupted(small_trace):
    monitor = make_monitor(small_trace)
    events = replay(monitor, small_trace, 0, small_trace.n_epochs)
    return monitor, events


def assert_kill_restore_identical(small_trace, tmp_path, expected, split,
                                  deflated=False, save=save_monitor):
    """Kill at ``split``, restore, and resume: the events must be ``==``.

    ``deflated`` writes the checkpoint as archives were written before
    members were stored; ``save`` is the writer (``save_monitor_v1`` for
    a format-1 archive).
    """
    monitor = make_monitor(small_trace)
    before = replay(monitor, small_trace, 0, split)
    path = tmp_path / "monitor.npz"
    if deflated:
        write_deflated(save, monitor, path)
        assert compress_types(path) == {zipfile.ZIP_DEFLATED}
    else:
        save(monitor, path)

    restored = load_monitor(path, CONFIG, RELIABILITY)
    np.testing.assert_array_equal(restored.thresholds.cold,
                                  monitor.thresholds.cold)
    np.testing.assert_array_equal(restored.thresholds.hot,
                                  monitor.thresholds.hot)
    after = replay(restored, small_trace, split, small_trace.n_epochs)
    assert before + after == expected


class TestMonitorKillRestore:
    def test_resume_mid_crisis_is_bit_identical(self, small_trace, tmp_path,
                                                uninterrupted):
        _, expected = uninterrupted
        detections = [e for e in expected if isinstance(e, CrisisDetected)]
        assert len(detections) >= 3, "fixture trace must contain crises"
        # Kill the service one epoch into the third crisis — mid-window,
        # mid-identification-protocol, with a partially-diagnosed library.
        assert_kill_restore_identical(small_trace, tmp_path, expected,
                                      detections[2].epoch + 1)

    def test_deflated_checkpoint_resumes_bit_identical(
        self, small_trace, tmp_path, uninterrupted
    ):
        _, expected = uninterrupted
        detections = [e for e in expected if isinstance(e, CrisisDetected)]
        assert_kill_restore_identical(small_trace, tmp_path, expected,
                                      detections[2].epoch + 1, deflated=True)

    @pytest.mark.parametrize("deflated", [False, True],
                             ids=["stored", "deflated"])
    def test_format_1_archive_resumes_bit_identical(
        self, small_trace, tmp_path, uninterrupted, deflated
    ):
        _, expected = uninterrupted
        detections = [e for e in expected if isinstance(e, CrisisDetected)]
        assert_kill_restore_identical(
            small_trace, tmp_path, expected, detections[2].epoch + 1,
            deflated=deflated, save=save_monitor_v1,
        )

    def test_resume_past_twice_the_window_is_bit_identical(
        self, small_trace, tmp_path, uninterrupted
    ):
        """Past 2W the ring has wrapped at least twice and the archive
        holds only the window, not the history before it."""
        monitor, expected = uninterrupted
        W = monitor.engine.window_epochs
        late = [e for e in expected
                if isinstance(e, CrisisDetected) and e.epoch > 2 * W]
        assert late, "fixture trace must have a crisis past twice the window"
        assert_kill_restore_identical(small_trace, tmp_path, expected,
                                      late[0].epoch + 1)

    def test_restored_state_matches(self, small_trace, tmp_path,
                                    uninterrupted):
        monitor, _ = uninterrupted
        path = tmp_path / "monitor.npz"
        save_monitor(monitor, path)
        restored = load_monitor(path, CONFIG, RELIABILITY)
        assert len(restored.store) == len(monitor.store)
        np.testing.assert_array_equal(restored.store.values(),
                                      monitor.store.values())
        np.testing.assert_array_equal(restored.store.anomalous_mask(),
                                      monitor.store.anomalous_mask())
        np.testing.assert_array_equal(restored.thresholds.cold,
                                      monitor.thresholds.cold)
        np.testing.assert_array_equal(restored.thresholds.hot,
                                      monitor.thresholds.hot)
        assert restored.library_labels == monitor.library_labels
        assert restored.untrusted_epochs == monitor.untrusted_epochs
        assert restored._crisis_counter == monitor._crisis_counter

    def test_history_is_bounded_by_the_window(self, small_trace, tmp_path,
                                              uninterrupted):
        monitor, _ = uninterrupted
        W = monitor.engine.window_epochs
        assert small_trace.n_epochs > 2 * W
        assert len(monitor.store) == small_trace.n_epochs
        assert monitor.store.values().shape == (W, small_trace.n_metrics,
                                                CONFIG.quantiles.count)
        assert monitor.store.anomalous_mask().shape == (W,)
        # A first save writes the window, and only the window, to its
        # epoch segments; the head holds none of it.
        path = tmp_path / "monitor.npz"
        save_monitor(monitor, path)
        header, epochs, _ = read_segments(path)
        assert header["store_epochs"] == small_trace.n_epochs
        rows = np.concatenate([r for _, r, _ in epochs])
        flags = np.concatenate([f for _, _, f in epochs])
        assert rows.shape[0] == W and flags.shape == (W,)
        assert epochs[0][0] == small_trace.n_epochs - W
        np.testing.assert_array_equal(rows, monitor.store.values())
        np.testing.assert_array_equal(flags, monitor.store.anomalous_mask())
        with np.load(path, allow_pickle=False) as data:
            assert "store_values" not in data.files
        # A format-1 archive holds the window as members.
        save_monitor_v1(monitor, tmp_path / "v1.npz")
        with np.load(tmp_path / "v1.npz", allow_pickle=False) as data:
            assert data["store_values"].shape[0] == W
            assert data["store_anomalous"].shape == (W,)
            assert unpack_header(data)["store_epochs"] == \
                small_trace.n_epochs

    def test_larger_window_than_saved_is_format_error(self, tmp_path,
                                                      uninterrupted):
        """The archive holds one window of history: a restart configured
        with a longer window cannot restore its thresholds faithfully."""
        monitor, _ = uninterrupted
        path = tmp_path / "monitor.npz"
        save_monitor(monitor, path)
        wider = FingerprintingConfig(
            selection=CONFIG.selection,
            thresholds=ThresholdConfig(window_days=60),
        )
        with pytest.raises(CheckpointFormatError, match="window"):
            load_monitor(path, wider, RELIABILITY)

    def test_store_epochs_below_row_count_is_corrupt(self, tmp_path,
                                                     uninterrupted):
        # A head whose epoch count stops short of its segments' rows.
        monitor, _ = uninterrupted
        path = tmp_path / "monitor.npz"
        save_monitor(monitor, path)
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        header = unpack_header(arrays)
        header["store_epochs"] -= 1
        arrays["header"] = pack_header(header)
        np.savez(path, **arrays)
        with pytest.raises(CheckpointCorruptError):
            load_monitor(path, CONFIG, RELIABILITY)

    def test_format_1_store_epochs_below_row_count_is_corrupt(
        self, tmp_path, uninterrupted
    ):
        monitor, _ = uninterrupted
        path = tmp_path / "monitor.npz"
        save_monitor_v1(monitor, path)
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        header = unpack_header(arrays)
        header["store_epochs"] = arrays["store_values"].shape[0] - 1
        arrays["header"] = pack_header(header)
        np.savez(path, **arrays)
        with pytest.raises(CheckpointCorruptError):
            load_monitor(path, CONFIG, RELIABILITY)

    def test_atomic_write_leaves_no_temp_files(self, small_trace, tmp_path):
        monitor = make_monitor(small_trace)
        replay(monitor, small_trace, 0, 200)
        path = tmp_path / "monitor.npz"
        save_monitor(monitor, path)
        save_monitor(monitor, path)  # overwrite in place
        # The head and the one epoch segment its 200 rows fill.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "monitor.npz", "monitor.npz.1.e0.seg",
        ]
        load_monitor(path, CONFIG, RELIABILITY)

    def test_wrong_kind_rejected(self, small_trace, tmp_path):
        pipe = FingerprintPipeline(small_trace, CONFIG)
        path = tmp_path / "pipeline.npz"
        save_pipeline(pipe, path)
        with pytest.raises(ValueError):
            load_monitor(path, CONFIG, RELIABILITY)


#: A monitor header's keys in the order they are written, discovery and
#: forecast last: the encoded bytes depend on it.
MONITOR_HEADER_KEYS = [
    "format_version", "kind", "extra", "n_metrics", "n_quantiles",
    "store_epochs", "epoch_minutes", "threshold_refresh_epochs",
    "min_history_epochs", "epochs_since_refresh", "crisis_counter",
    "untrusted_epochs", "has_thresholds", "live", "library",
    "n_pre_buffer", "segments", "discovery", "forecast",
]


class TestMonitorHeader:
    def test_header_is_encoded_once(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        monitor = StreamingCrisisMonitor(n_metrics=4, relevant_metrics=[0, 1])
        monitor.attach_discovery(DiscoveryEngine(DiscoveryConfig()))
        monitor.attach_forecast(ForecastEngine(ForecastConfig()))
        for _ in range(12):
            monitor.ingest(np.sort(rng.normal(size=(4, 3)), axis=1), 0.0)
        encoded = []
        real = checkpoint.pack_header

        def spy(header):
            encoded.append(list(header))
            return real(header)

        monkeypatch.setattr(checkpoint, "pack_header", spy)
        path = tmp_path / "monitor.npz"
        save_monitor(monitor, path, extra={"applied_seq": 3})
        assert encoded == [MONITOR_HEADER_KEYS]
        with np.load(path, allow_pickle=False) as data:
            raw = bytes(data["header"])
            header = unpack_header(data)
        assert list(header) == MONITOR_HEADER_KEYS
        assert raw == json.dumps(header).encode("utf-8")


def write_index_slots(path, monitor, kdtree=False):
    """Rewrite ``path`` the way archives were written while the monitor
    cached one identification index per protocol slot: an ``index_slots``
    header key and an ``index_slot{k}_*`` snapshot per slot, each built
    as the monitor built it (every diagnosed crisis fingerprinted at depth
    ``pre + k + 1``, id = crisis number, payload = label).  ``kdtree``
    gives each slot the header the retired k-d tree backend wrote.
    """
    with np.load(path, allow_pickle=False) as data:
        arrays = {k: data[k] for k in data.files}
    header = unpack_header(arrays)
    slots = list(range(CONFIG.identification.n_epochs))
    tail = {k: header.pop(k) for k in ("discovery", "forecast") if k in header}
    header.update(index_slots=slots, **tail)
    arrays["header"] = pack_header(header)
    pre = CONFIG.fingerprint.pre_epochs
    dim = monitor.relevant.size * CONFIG.quantiles.count
    for k in slots:
        index = BruteForceIndex(dim, dtype=np.float64)
        for stored in monitor._library:
            if stored.label is not None:
                index.add(
                    monitor._fingerprint(stored.quantile_window,
                                         n_epochs=pre + k + 1),
                    id=stored.number, payload=stored.label,
                )
        assert len(index) > 0, "slot indexes must hold the library"
        members = index_to_arrays(index, prefix=f"index_slot{k}_")
        if kdtree:
            key = f"index_slot{k}_header"
            members[key] = pack_header(
                as_kdtree_header(unpack_header({"header": members[key]}))
            )
        arrays.update(members)
    np.savez(path, **arrays)


class TestIndexSlotArchives:
    """Archives that still carry per-slot identification indexes load;
    the members are derived state and are ignored."""

    @pytest.mark.parametrize("kdtree", [False, True], ids=["brute", "kdtree"])
    def test_slot_members_load_and_resume_identically(
        self, small_trace, tmp_path, uninterrupted, kdtree
    ):
        _, expected = uninterrupted
        detections = [e for e in expected if isinstance(e, CrisisDetected)]
        split = detections[2].epoch + 1
        monitor = make_monitor(small_trace)
        before = replay(monitor, small_trace, 0, split)
        path = tmp_path / "monitor.npz"
        save_monitor_v1(monitor, path)
        write_index_slots(path, monitor, kdtree=kdtree)
        with np.load(path, allow_pickle=False) as data:
            assert "index_slot4_vectors" in data.files
            assert unpack_header(data)["index_slots"] == [0, 1, 2, 3, 4]

        restored = load_monitor(path, CONFIG, RELIABILITY)
        after = replay(restored, small_trace, split, small_trace.n_epochs)
        assert before + after == expected

    def test_fresh_archive_has_no_index_slot(self, tmp_path, uninterrupted):
        monitor, _ = uninterrupted
        assert any(label is not None for label in monitor.library_labels)
        path = tmp_path / "monitor.npz"
        save_monitor(monitor, path)
        with np.load(path, allow_pickle=False) as data:
            assert not [k for k in data.files if k.startswith("index_slot")]
            header = unpack_header(data)
        assert "index_slots" not in header
        assert header["format_version"] == checkpoint.MONITOR_FORMAT_VERSION == 2


class TestPipelineCheckpoint:
    def test_restored_pipeline_identifies_identically(self, small_trace,
                                                      tmp_path):
        pipe = FingerprintPipeline(small_trace, CONFIG)
        crises = small_trace.detected_crises
        for crisis in crises[:4]:
            pipe.observe(crisis)
            pipe.refresh(crisis.detected_epoch)
            pipe.confirm(crisis)
        pipe.update_identification_threshold()

        path = tmp_path / "pipeline.npz"
        save_pipeline(pipe, path)
        restored = load_pipeline(path, small_trace, CONFIG)

        assert restored.identification_threshold == \
            pipe.identification_threshold
        np.testing.assert_array_equal(restored.relevant, pipe.relevant)
        assert len(restored.known) == len(pipe.known)
        for a, b in zip(restored.known, pipe.known):
            assert a.label == b.label
            np.testing.assert_array_equal(a.quantile_window,
                                          b.quantile_window)

        target = crises[4]
        seq_original = pipe.identify(target).sequence
        seq_restored = restored.identify(target).sequence
        assert seq_original == seq_restored

        # The restored pipeline keeps *learning* identically too.
        pipe.observe(target)
        restored.observe(target)
        pipe.refresh(target.detected_epoch)
        restored.refresh(target.detected_epoch)
        np.testing.assert_array_equal(pipe.relevant, restored.relevant)


class TestCorruptCheckpoints:
    """Damaged archives raise *typed* errors, never raw KeyError/struct.

    This is the restore half of the serving tier's durability story: a
    torn or garbage checkpoint must be distinguishable from "no
    checkpoint yet" (FileNotFoundError) and from a programming error, so
    the supervisor can fall back to pure journal replay.
    """

    @pytest.fixture
    def saved(self, tmp_path):
        monitor = StreamingCrisisMonitor(n_metrics=4, relevant_metrics=[0, 1])
        path = tmp_path / "monitor.npz"
        save_monitor(monitor, path, extra={"applied_seq": 7})
        return path

    def test_missing_file_stays_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_monitor(tmp_path / "never-written.npz")

    @pytest.mark.parametrize("keep_fraction", [0.0, 0.1, 0.5, 0.9])
    def test_truncated_archive_is_typed(self, saved, keep_fraction):
        data = saved.read_bytes()
        saved.write_bytes(data[: int(len(data) * keep_fraction)])
        with pytest.raises(CheckpointCorruptError):
            load_monitor(saved)

    def test_garbage_bytes_are_typed(self, saved):
        saved.write_bytes(b"this is not an npz archive at all")
        with pytest.raises(CheckpointCorruptError):
            load_monitor(saved)
        with pytest.raises(CheckpointCorruptError):
            read_checkpoint_extra(saved)

    def test_flipped_byte_never_raises_raw_error(self, saved):
        # Damage a byte at every 64-byte stride; whatever breaks must
        # surface as the typed hierarchy (or load fine, for bytes that
        # happen to sit in zip padding).
        pristine = saved.read_bytes()
        for offset in range(0, len(pristine), 64):
            data = bytearray(pristine)
            data[offset] ^= 0xFF
            saved.write_bytes(bytes(data))
            try:
                load_monitor(saved)
            except CheckpointError:
                pass  # typed — exactly what recovery code catches

    def test_archive_without_header_is_typed(self, saved):
        with open(saved, "wb") as fh:
            np.savez(fh, not_a_header=np.zeros(3))
        with pytest.raises(CheckpointCorruptError):
            load_monitor(saved)

    def test_header_not_json_is_typed(self, saved):
        with open(saved, "wb") as fh:
            np.savez(fh, header=np.frombuffer(b"{broken", dtype=np.uint8))
        with pytest.raises(CheckpointCorruptError):
            load_monitor(saved)

    def test_unsupported_version_is_format_error(self, saved):
        from repro.core.atomicio import pack_header

        with open(saved, "wb") as fh:
            np.savez(fh, header=pack_header(
                {"format_version": 999, "kind": "monitor"}
            ))
        with pytest.raises(CheckpointFormatError):
            load_monitor(saved)

    def test_wrong_kind_is_format_error(self, saved):
        # A monitor archive offered where a pipeline is expected.
        with pytest.raises(CheckpointFormatError):
            read_checkpoint_extra(saved, expected_kind="pipeline")

    def test_intact_extra_round_trips(self, saved):
        assert read_checkpoint_extra(saved) == {"applied_seq": 7}
