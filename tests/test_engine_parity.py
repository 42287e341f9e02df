"""Cross-plane parity: moving onto the engine changed nothing observable.

Every data plane that now routes through :mod:`repro.core.engine` — the
streaming monitor, the replay pipeline, the evaluation harness's
threshold cache, and checkpoint restore — is checked here against the
pre-refactor computation (a full trailing-window recompute through
:func:`percentile_thresholds`), event-for-event and bit-for-bit.
"""

import json
import types

import numpy as np
import pytest

from repro.config import (
    FingerprintingConfig,
    ReliabilityConfig,
    SelectionConfig,
    ThresholdConfig,
)
from repro.core.atomicio import unpack_header
from repro.core.checkpoint import load_monitor, save_monitor
from repro.core.engine import threshold_series_for
from repro.core.pipeline import FingerprintPipeline
from repro.core.streaming import (
    CrisisDetected,
    CrisisEnded,
    StreamingCrisisMonitor,
)
from repro.core.thresholds import percentile_thresholds
from repro.evaluation.experiments import OnlineIdentificationExperiment
from repro.telemetry.epochs import EpochClock
from repro.telemetry.validation import validate_history
from tests.test_core_checkpoint import save_monitor_v1

CONFIG = FingerprintingConfig(
    selection=SelectionConfig(n_relevant=20),
    thresholds=ThresholdConfig(window_days=30),
)
RELIABILITY = ReliabilityConfig(coverage_floor=0.5)


def make_monitor(small_trace, clock=None):
    return StreamingCrisisMonitor(
        n_metrics=small_trace.n_metrics,
        relevant_metrics=list(range(12)),
        config=CONFIG,
        threshold_refresh_epochs=96,
        min_history_epochs=96 * 7,
        reliability=RELIABILITY,
        clock=clock,
    )


def replay(monitor, trace, start, stop):
    frac = trace.kpi_violation_fraction.max(axis=1)
    events = []
    for epoch in range(start, stop):
        for event in monitor.ingest(trace.quantiles[epoch],
                                    float(frac[epoch])):
            events.append(event)
            if isinstance(event, CrisisEnded):
                monitor.diagnose(event.crisis_number,
                                 f"T{event.crisis_number % 4}")
    return events


def record_observed(monitor):
    """Record ``(values, anomalous or quarantined)`` for every epoch the
    monitor's engine observes, independently of the engine's own state."""
    engine = monitor.engine
    fed = []
    observe = engine.observe

    def recording_observe(values, anomalous, frozen=False):
        fed.append((np.array(values, dtype=float), anomalous or frozen))
        return observe(values, anomalous, frozen)

    engine.observe = recording_observe
    return fed


def use_legacy_refresh(monitor):
    """Swap the engine's incremental refresh for the pre-refactor one:
    a full percentile recompute over the trailing window.

    The oracle keeps its own record of every epoch the engine observes,
    so it never reads the tracker's ring it is checking.
    """
    fed = record_observed(monitor)

    def legacy_refresh(self):
        recent = fed[-self.window_epochs:]
        window = [v for v, anomalous in recent if not anomalous]
        if len(window) < 2:
            return False
        cfg_t = self.config.thresholds
        self.thresholds = percentile_thresholds(
            np.stack(window), cfg_t.cold_percentile, cfg_t.hot_percentile
        )
        return True

    engine = monitor.engine
    engine.refresh_thresholds = types.MethodType(legacy_refresh, engine)


@pytest.fixture(scope="module")
def engine_run(small_trace):
    """Full replay on the engine-backed monitor."""
    monitor = make_monitor(small_trace)
    events = replay(monitor, small_trace, 0, small_trace.n_epochs)
    return monitor, events


class TestMonitorEventParity:
    def test_event_for_event_identical_to_full_recompute(self, small_trace,
                                                         engine_run):
        engine_monitor, engine_events = engine_run
        legacy = make_monitor(small_trace)
        use_legacy_refresh(legacy)
        legacy_events = replay(legacy, small_trace, 0, small_trace.n_epochs)
        # Dataclass equality covers epochs, labels, and float distances —
        # this is a bitwise claim, not a tolerance.
        assert engine_events == legacy_events
        detections = [e for e in engine_events
                      if isinstance(e, CrisisDetected)]
        assert len(detections) >= 3, "fixture trace must contain crises"
        np.testing.assert_array_equal(engine_monitor.thresholds.cold,
                                      legacy.thresholds.cold)
        np.testing.assert_array_equal(engine_monitor.thresholds.hot,
                                      legacy.thresholds.hot)


class TestThresholdSeriesParity:
    def test_matches_direct_recompute(self, small_trace):
        w = CONFIG.thresholds.window_days * small_trace.epochs_per_day
        series = threshold_series_for(small_trace, w)
        assert threshold_series_for(small_trace, w) is series, \
            "series must be shared via the trace cache"
        increasing = [900, 1200, 2000, small_trace.n_epochs]
        out_of_order = [1500, 960]  # exercise the direct-recompute fallback
        for epoch in increasing + out_of_order:
            expected = percentile_thresholds(
                small_trace.threshold_history(epoch, w)
            )
            got = series.at(epoch)
            np.testing.assert_array_equal(got.cold, expected.cold)
            np.testing.assert_array_equal(got.hot, expected.hot)

    def test_too_early_epoch_fails_like_legacy(self, small_trace):
        w = CONFIG.thresholds.window_days * small_trace.epochs_per_day
        series = threshold_series_for(small_trace, w)
        with pytest.raises(ValueError, match="not enough crisis-free"):
            series.at(0)

    def test_pipeline_thresholds_match_legacy(self, small_trace):
        pipe = FingerprintPipeline(small_trace, CONFIG)
        w = CONFIG.thresholds.window_days * small_trace.epochs_per_day
        for crisis in small_trace.detected_crises[:6]:
            pipe.observe(crisis)
            pipe.refresh(crisis.detected_epoch)
            expected = percentile_thresholds(
                small_trace.threshold_history(crisis.detected_epoch, w)
            )
            np.testing.assert_array_equal(pipe.thresholds.cold,
                                          expected.cold)
            np.testing.assert_array_equal(pipe.thresholds.hot,
                                          expected.hot)

    def test_experiment_threshold_cache_matches_legacy(self, small_trace):
        exp = OnlineIdentificationExperiment(small_trace, CONFIG)
        exp.precompute()
        w = CONFIG.thresholds.window_days * small_trace.epochs_per_day
        cache = small_trace.__dict__["_threshold_cache"]
        checked = 0
        for (epoch, window, cold_p, hot_p), thr in cache.items():
            if window != w:
                continue
            expected = percentile_thresholds(
                small_trace.threshold_history(epoch, window), cold_p, hot_p
            )
            np.testing.assert_array_equal(thr.cold, expected.cold)
            np.testing.assert_array_equal(thr.hot, expected.hot)
            checked += 1
        assert checked >= len(small_trace.labeled_crises)


class TestCheckpointCompat:
    def test_pre_engine_checkpoint_restores_and_resumes(self, small_trace,
                                                        tmp_path,
                                                        engine_run):
        """Old archives (no ``epoch_minutes`` header field) still load and
        resume bit-identically, defaulting to the paper's 15-minute epochs."""
        _, expected = engine_run
        detections = [e for e in expected if isinstance(e, CrisisDetected)]
        split = detections[1].epoch + 1

        monitor = make_monitor(small_trace)
        before = replay(monitor, small_trace, 0, split)
        path = tmp_path / "new.npz"
        save_monitor_v1(monitor, path)

        # Rewrite the archive the way a pre-engine version wrote it.
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        header = unpack_header(arrays)
        assert header["epoch_minutes"] == 15
        del header["epoch_minutes"]
        arrays["header"] = np.frombuffer(
            json.dumps(header).encode("utf-8"), dtype=np.uint8
        )
        legacy_path = tmp_path / "legacy.npz"
        np.savez(legacy_path, **arrays)

        restored = load_monitor(legacy_path, CONFIG, RELIABILITY)
        assert restored.clock.epoch_minutes == 15
        after = replay(restored, small_trace, split, small_trace.n_epochs)
        assert before + after == expected

    def test_full_history_checkpoint_restores_and_resumes(self, small_trace,
                                                          tmp_path,
                                                          engine_run):
        """Archives written before the history was bounded hold every
        epoch and no ``store_epochs``; they load and resume ``==``."""
        engine_monitor, expected = engine_run
        W = engine_monitor.engine.window_epochs
        detections = [e for e in expected if isinstance(e, CrisisDetected)]
        split = next(e.epoch for e in detections if e.epoch > 2 * W) + 1

        monitor = make_monitor(small_trace)
        fed = record_observed(monitor)
        before = replay(monitor, small_trace, 0, split)
        path = tmp_path / "new.npz"
        save_monitor_v1(monitor, path)

        # Rewrite the archive the way a full-history version wrote it.
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        header = unpack_header(arrays)
        assert header.pop("store_epochs") == split == len(fed)
        history = np.stack([v for v, _ in fed])
        flags = np.array([a for _, a in fed])
        np.testing.assert_array_equal(arrays["store_values"], history[-W:])
        np.testing.assert_array_equal(arrays["store_anomalous"], flags[-W:])
        arrays["store_values"] = history
        arrays["store_anomalous"] = flags
        arrays["header"] = np.frombuffer(
            json.dumps(header).encode("utf-8"), dtype=np.uint8
        )
        legacy_path = tmp_path / "legacy.npz"
        np.savez(legacy_path, **arrays)

        restored = load_monitor(legacy_path, CONFIG, RELIABILITY)
        assert len(restored.store) == split
        np.testing.assert_array_equal(restored.store.values(), history[-W:])
        after = replay(restored, small_trace, split, small_trace.n_epochs)
        assert before + after == expected


class TestNonDefaultClock:
    """Epoch lengths are derived from the clock, not hardcoded to 96/day."""

    def test_monitor_cadences_follow_clock(self, small_trace):
        clock = EpochClock(epoch_minutes=5)
        monitor = StreamingCrisisMonitor(
            n_metrics=small_trace.n_metrics,
            relevant_metrics=[0, 1, 2],
            config=CONFIG,
            clock=clock,
        )
        assert clock.per_day == 288
        assert monitor.threshold_refresh_epochs == 288
        assert monitor.min_history_epochs == 7 * 288
        assert monitor.engine.window_epochs == \
            CONFIG.thresholds.window_days * 288

    def test_checkpoint_round_trips_clock(self, small_trace, tmp_path):
        clock = EpochClock(epoch_minutes=5)
        monitor = StreamingCrisisMonitor(
            n_metrics=small_trace.n_metrics,
            relevant_metrics=[0, 1, 2],
            config=CONFIG,
            clock=clock,
        )
        for epoch in range(10):
            monitor.ingest(small_trace.quantiles[epoch], 0.0)
        path = tmp_path / "five_minute.npz"
        save_monitor(monitor, path)
        restored = load_monitor(path, CONFIG, RELIABILITY)
        assert restored.clock.epoch_minutes == 5
        assert restored.threshold_refresh_epochs == 288

    def test_validate_history_stuck_window_follows_clock(self, rng):
        # One metric frozen for the last 150 epochs: stuck at the paper's
        # 96-epoch day, not stuck over a 288-epoch (5-minute) day.
        h = rng.normal(size=(300, 3, 2))
        h[-150:, 0, :] = 7.0
        assert any(i.code == "stuck"
                   for i in validate_history(h).issues)
        report = validate_history(h, clock=EpochClock(epoch_minutes=5))
        assert not any(i.code == "stuck" for i in report.issues)
