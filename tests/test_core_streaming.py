"""Tests for the streaming crisis monitor."""

import numpy as np
import pytest

from repro.config import (
    FingerprintingConfig,
    SelectionConfig,
    ThresholdConfig,
)
from repro.core.identification import UNKNOWN
from repro.core.streaming import (
    CrisisDetected,
    CrisisEnded,
    IdentificationUpdate,
    StreamingCrisisMonitor,
)
from repro.methods import FingerprintMethod

STREAM_CONFIG = FingerprintingConfig(
    selection=SelectionConfig(n_relevant=20),
    thresholds=ThresholdConfig(window_days=30),
)


def make_monitor(small_trace, relevant):
    return StreamingCrisisMonitor(
        n_metrics=small_trace.n_metrics,
        relevant_metrics=relevant,
        config=STREAM_CONFIG,
        threshold_refresh_epochs=96,
        min_history_epochs=96 * 7,
    )


@pytest.fixture(scope="module")
def replayed(small_trace):
    """Replay the whole small trace through the monitor, collecting events."""
    method = FingerprintMethod(STREAM_CONFIG)
    method.fit(small_trace, small_trace.labeled_crises)
    monitor = make_monitor(small_trace, method.relevant)

    frac = small_trace.kpi_violation_fraction.max(axis=1)
    events = []
    diagnosed = set()
    for epoch in range(small_trace.n_epochs):
        for event in monitor.ingest(small_trace.quantiles[epoch],
                                    float(frac[epoch])):
            events.append(event)
            # Operators diagnose each crisis when it ends.
            if isinstance(event, CrisisEnded):
                truth = _true_label(small_trace, event.epoch)
                if truth is not None:
                    monitor.diagnose(event.crisis_number, truth)
                    diagnosed.add(event.crisis_number)
    return monitor, events, diagnosed


def _true_label(trace, end_epoch):
    for c in trace.crises:
        if c.instance.start_epoch - 4 <= end_epoch <= \
                c.instance.end_epoch + 8:
            return c.label
    return None


class TestStreamingMonitor:
    def test_detects_most_crises(self, small_trace, replayed):
        monitor, events, _ = replayed
        detections = [e for e in events if isinstance(e, CrisisDetected)]
        n_injected = len(small_trace.detected_crises)
        assert len(detections) >= 0.8 * n_injected

    def test_every_detection_has_identifications(self, replayed):
        _, events, _ = replayed
        detections = {e.crisis_number
                      for e in events if isinstance(e, CrisisDetected)}
        idents = {}
        for e in events:
            if isinstance(e, IdentificationUpdate):
                idents.setdefault(e.crisis_number, []).append(e)
        for number in detections:
            seq = idents.get(number, [])
            assert 1 <= len(seq) <= 5
            ks = [e.identification_epoch for e in seq]
            assert ks == list(range(len(ks)))

    def test_crises_end(self, replayed):
        _, events, _ = replayed
        started = sum(isinstance(e, CrisisDetected) for e in events)
        ended = sum(isinstance(e, CrisisEnded) for e in events)
        assert ended >= started - 1  # last one may still be live

    def test_identification_improves_with_library(self, small_trace,
                                                  replayed):
        """Later crises of recurring types should sometimes be recognized."""
        monitor, events, _ = replayed
        labeled_updates = [
            e for e in events
            if isinstance(e, IdentificationUpdate) and e.label != UNKNOWN
        ]
        assert len(labeled_updates) > 0

    def test_diagnose_unknown_number_raises(self, replayed):
        monitor, _, _ = replayed
        with pytest.raises(KeyError):
            monitor.diagnose(999_999, "B")

    def test_library_has_diagnoses(self, replayed):
        monitor, _, diagnosed = replayed
        labels = [lab for lab in monitor.library_labels if lab is not None]
        assert len(labels) >= len(diagnosed) - 1


class TestMonitorValidation:
    def test_needs_relevant_metrics(self, small_trace):
        with pytest.raises(ValueError):
            StreamingCrisisMonitor(small_trace.n_metrics, [])

    def test_relevant_bounds_checked(self, small_trace):
        with pytest.raises(ValueError):
            StreamingCrisisMonitor(small_trace.n_metrics,
                                   [small_trace.n_metrics + 1])

    def test_not_ready_without_history(self, small_trace):
        monitor = make_monitor(small_trace, [0, 1, 2])
        assert not monitor.ready
        events = monitor.ingest(small_trace.quantiles[0], 0.0)
        assert events == []

    def test_no_detection_before_ready(self, small_trace):
        monitor = make_monitor(small_trace, [0, 1, 2])
        # Even an anomalous epoch cannot be detected without thresholds.
        events = monitor.ingest(small_trace.quantiles[0], 0.9)
        assert events == []

    def test_set_relevant_metrics(self, small_trace):
        monitor = make_monitor(small_trace, [0, 1])
        monitor.set_relevant_metrics([3, 4, 5])
        np.testing.assert_array_equal(monitor.relevant, [3, 4, 5])
        with pytest.raises(ValueError):
            monitor.set_relevant_metrics([])
        # Out of range either way fails here, like the constructor, not
        # silently (-1) or at the next identification (n_metrics).
        for bad in ([0, -1], [small_trace.n_metrics]):
            with pytest.raises(ValueError, match="out of range"):
                monitor.set_relevant_metrics(bad)
        np.testing.assert_array_equal(monitor.relevant, [3, 4, 5])
