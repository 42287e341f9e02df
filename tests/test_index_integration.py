"""The index wired through the stack: monitor parity, incident database.

The streaming monitor's identification must emit *bit-identical* events
to the reference scan below, and the incident database's exact (brute)
index must return the neighbors a linear scan would.
"""

import numpy as np
import pytest

from repro.config import (
    FingerprintingConfig,
    SelectionConfig,
    ThresholdConfig,
)
from repro.core.identification import Identifier, estimate_threshold_online
from repro.core.streaming import (
    CrisisEnded,
    IdentificationUpdate,
    StreamingCrisisMonitor,
    _LiveCrisis,
)
from repro.core.streaming import UNKNOWN
from repro.incidents import IncidentDatabase
from repro.methods import FingerprintMethod

STREAM_CONFIG = FingerprintingConfig(
    selection=SelectionConfig(n_relevant=20),
    thresholds=ThresholdConfig(window_days=30),
)


class _ScanMonitor(StreamingCrisisMonitor):
    """The monitor with the pre-index linear-scan `_identify` (reference)."""

    def _identify(self, live: _LiveCrisis, epoch: int) -> IdentificationUpdate:
        k = live.identifications
        pre = self.config.fingerprint.pre_epochs
        window = np.stack(live.summaries)
        new_vec = self._fingerprint(window)
        library = []
        for stored in self._library:
            if stored.label is None:
                continue
            library.append(
                (self._fingerprint(stored.quantile_window,
                                   n_epochs=pre + k + 1), stored.label)
            )
        threshold = None
        if len(library) >= 2:
            try:
                threshold = estimate_threshold_online(
                    [v for v, _ in library],
                    [lab for _, lab in library],
                    self.config.identification.alpha,
                )
            except ValueError:
                threshold = None
        if threshold is None or not library:
            result_label, distance = UNKNOWN, None
        else:
            result = Identifier(threshold).identify(new_vec, library)
            result_label, distance = result.label, result.distance
        live.identifications += 1
        return IdentificationUpdate(
            epoch=epoch,
            crisis_number=live.number,
            identification_epoch=k,
            label=result_label,
            distance=distance,
        )


def _replay(monitor, trace, start=0, stop=None, diagnose=True):
    frac = trace.kpi_violation_fraction.max(axis=1)
    stop = trace.n_epochs if stop is None else stop
    events = []
    for epoch in range(start, stop):
        for event in monitor.ingest(trace.quantiles[epoch],
                                    float(frac[epoch])):
            events.append(event)
            if diagnose and isinstance(event, CrisisEnded):
                label = _true_label(trace, event.epoch)
                if label is not None:
                    monitor.diagnose(event.crisis_number, label)
    return events


def _true_label(trace, end_epoch):
    for c in trace.crises:
        if c.instance.start_epoch - 4 <= end_epoch <= \
                c.instance.end_epoch + 8:
            return c.label
    return None


@pytest.fixture(scope="module")
def relevant(small_trace):
    method = FingerprintMethod(STREAM_CONFIG)
    method.fit(small_trace, small_trace.labeled_crises)
    return method.relevant


def _make(small_trace, relevant, cls=StreamingCrisisMonitor):
    return cls(
        n_metrics=small_trace.n_metrics,
        relevant_metrics=relevant,
        config=STREAM_CONFIG,
        threshold_refresh_epochs=96,
        min_history_epochs=96 * 7,
    )


class TestMonitorParity:
    def test_index_path_bit_identical_to_scan(self, small_trace, relevant):
        """Every emitted event — labels *and* distances — matches exactly."""
        indexed = _replay(_make(small_trace, relevant), small_trace)
        scanned = _replay(
            _make(small_trace, relevant, cls=_ScanMonitor), small_trace
        )
        assert indexed == scanned
        idents = [e for e in indexed
                  if isinstance(e, IdentificationUpdate)]
        matched = [e for e in idents if e.label != UNKNOWN]
        assert len(idents) > 0
        assert len(matched) > 0  # parity on a trivially-unknown stream is vacuous


class TestIncidentDatabaseIndex:
    def test_nearest_matches_linear_scan(self, rng):
        db = IncidentDatabase()
        points = rng.normal(size=(50, 6))
        for i, p in enumerate(points):
            db.add(f"T{i % 4}", i, p)
        query = rng.normal(size=6)
        scan = sorted(
            (float(np.linalg.norm(query - p)), i)
            for i, p in enumerate(points)
        )[:5]
        hits = db.nearest(query, k=5)
        assert [(d, r.incident_id) for r, d in hits] == scan

    def test_tie_break_lowest_incident_id(self):
        """Regression: equal distances resolve to the lowest incident id."""
        db = IncidentDatabase()
        vec = np.array([1.0, 2.0])
        for i in range(4):
            db.add("B", i * 10, vec)
        hits = db.nearest(vec, k=3)
        assert [r.incident_id for r, _ in hits] == [0, 1, 2]
        assert all(d == 0.0 for _, d in hits)

    def test_index_tracks_mutations(self, rng):
        db = IncidentDatabase()
        db.add("A", 0, np.array([0.0, 0.0]))
        assert db.nearest(np.zeros(2), k=1)[0][0].label == "A"
        db.add("B", 1, np.array([0.1, 0.0]))  # after an index was built
        hits = db.nearest(np.array([0.1, 0.0]), k=1)
        assert hits[0][0].label == "B"
        db.update_fingerprints(
            [np.array([5.0, 5.0]), np.array([0.0, 0.0])]
        )
        assert db.nearest(np.zeros(2), k=1)[0][0].label == "B"
