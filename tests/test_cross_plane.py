"""One crisis window, one fingerprint kernel and one identification slot
across the planes of the method.

Given the same thresholds, relevant metrics and diagnosed library, the
replay pipeline (``FingerprintPipeline.identify``), the live monitor
(``StreamingCrisisMonitor._identify``) and the offline method
(``FingerprintMethod.vector``) must compute the same fingerprints, bit
for bit, and the pipeline and monitor the same labels and distances.
The inputs are small synthetic arrays; nothing is simulated.
"""

import types

import numpy as np
import pytest

from repro.config import FingerprintingConfig
from repro.core import streaming
from repro.core.columnar import WindowBlock
from repro.core.identification import UNKNOWN, Identifier
from repro.core.pipeline import FingerprintPipeline
from repro.core.similarity import l2_distance
from repro.core.streaming import (
    StreamingCrisisMonitor,
    _LiveCrisis,
    _StoredCrisis,
)
from repro.core.thresholds import QuantileThresholds
from repro.forecast.detector import TwoStageDetector
from repro.methods.fingerprints import FingerprintMethod

N_EPOCHS, N_METRICS, N_Q = 60, 4, 3
RELEVANT = np.array([0, 2, 3])
CONFIG = FingerprintingConfig()
PRE = CONFIG.fingerprint.pre_epochs
THRESHOLDS = QuantileThresholds(
    cold=np.full((N_METRICS, N_Q), -1.0), hot=np.full((N_METRICS, N_Q), 1.0)
)

# Each crisis drives (metric, quantile) cells hot (+5) or cold (-5) for
# five epochs from its detection epoch; every other value is normal.  The
# new crisis differs from the first A and the first B only in cell C2,
# by the same amount in opposite directions: a distance tie across
# labels, which the library order breaks.
C1, C2, C3 = (0, 1), (2, 0), (3, 2)
LIBRARY = [
    (10, "A", {C1: 5.0, C2: 5.0}),
    (20, "B", {C1: 5.0, C2: -5.0}),
    (30, "A", {C1: 5.0, C2: 5.0, C3: 5.0}),
    (40, "B", {C1: 5.0, C2: -5.0, C3: -5.0}),
]
NEW = {C1: 5.0}


def crisis(index, detected_epoch):
    return types.SimpleNamespace(index=index, detected_epoch=detected_epoch)


def planes(new_epoch):
    """A trace holding the library and a new crisis at ``new_epoch``, and
    the three planes set up over it."""
    quantiles = np.zeros((N_EPOCHS, N_METRICS, N_Q))
    for det, _, cells in LIBRARY + [(new_epoch, None, NEW)]:
        for (metric, q), value in cells.items():
            quantiles[det:det + 5, metric, q] = value
    trace = types.SimpleNamespace(quantiles=quantiles, n_epochs=N_EPOCHS)
    library = [crisis(i, det) for i, (det, _, _) in enumerate(LIBRARY)]

    pipeline = FingerprintPipeline(trace, CONFIG)
    pipeline.thresholds, pipeline.relevant = THRESHOLDS, RELEVANT
    # The library always yields a T_id, so this never applies.
    pipeline.set_identification_threshold(0.0)
    for c, (_, label, _) in zip(library, LIBRARY):
        pipeline.confirm(c, label=label)

    monitor = StreamingCrisisMonitor(N_METRICS, RELEVANT, CONFIG)
    monitor.thresholds = THRESHOLDS
    monitor._library = [
        _StoredCrisis(number=i, label=known.label,
                      quantile_window=known.quantile_window)
        for i, known in enumerate(pipeline.known)
    ]

    method = FingerprintMethod(CONFIG)
    method.trace, method.thresholds, method.relevant = (
        trace, THRESHOLDS, RELEVANT
    )
    return trace, library, pipeline, monitor, method


@pytest.mark.parametrize("new_epoch", [1, 50, 57],
                         ids=["before-pre", "inside", "clipped-at-end"])
def test_planes_fingerprint_and_identify_alike(new_epoch, monkeypatch):
    trace, library, pipeline, monitor, method = planes(new_epoch)
    new = crisis(99, new_epoch)
    window = trace.quantiles[CONFIG.fingerprint.window(new_epoch, N_EPOCHS)]

    matches = []

    class Recording(Identifier):
        def identify(self, vector, entries):
            matches.append((vector, [vec for vec, _ in entries]))
            return super().identify(vector, entries)

    monkeypatch.setattr(streaming, "Identifier", Recording)
    results = pipeline.identify(new).results
    live = _LiveCrisis(number=99, detected_epoch=new_epoch,
                       summaries=WindowBlock.from_rows(list(window)))
    updates = [monitor._identify(live, new_epoch + k)
               for k in range(CONFIG.identification.n_epochs)]

    n_slots = CONFIG.identification.n_epochs
    assert len(results) == len(updates) == n_slots
    assert len(matches) == 2 * n_slots  # pipeline slots, then monitor's
    labels = [label for _, label, _ in LIBRARY]
    tied = []
    for k in range(n_slots):
        depth = PRE + k + 1
        # One window and one kernel: every plane's fingerprint of the new
        # crisis and of each library crisis at this slot's depth.
        expected_new = method.vector(new, depth)
        expected_lib = [method.vector(c, depth) for c in library]
        for vector, lib in (matches[k], matches[n_slots + k]):
            np.testing.assert_array_equal(vector, expected_new)
            for got, want in zip(lib, expected_lib):
                np.testing.assert_array_equal(got, want)
        # One slot: equal labels and distances.
        assert results[k].label == updates[k].label
        assert results[k].distance == updates[k].distance
        distances = [l2_distance(expected_new, v) for v in expected_lib]
        assert results[k].distance == min(distances)
        nearest = [labels[i] for i, d in enumerate(distances)
                   if d == min(distances)]
        assert results[k].nearest_label == nearest[0]
        assert results[k].label in (nearest[0], UNKNOWN)
        if results[k].label != UNKNOWN:
            tied.append(nearest)
    # The tie is real and decided: every slot that matched chose the
    # first of two equidistant crises with different labels.
    assert tied and all(nearest == ["A", "B"] for nearest in tied)


def test_two_stage_identify_is_a_linear_scan():
    rng = np.random.default_rng(4)
    vectors = rng.normal(size=(12, 6))
    labels = ["A", "B", "C"] * 4
    vectors[7] = vectors[3]  # equal entries under labels A and B
    detector = TwoStageDetector()
    detector.set_catalog(vectors, labels)
    gated = detector.match_threshold
    assert gated is not None
    queries = [vectors[7], vectors[3] + 1e-3, vectors[5] + 0.2]
    queries += list(rng.normal(size=(20, 6)))
    seen = set()
    for threshold in (gated, None):
        detector.match_threshold = threshold
        for query in queries:
            distances = [l2_distance(query, v) for v in vectors]
            best = min(range(len(vectors)), key=lambda i: (distances[i], i))
            label = labels[best]
            if threshold is not None and distances[best] >= threshold:
                label = UNKNOWN
            assert detector.identify(query) == (label, distances[best])
            seen.add(label == UNKNOWN)
    assert detector.identify(vectors[7]) == ("A", 0.0)
    assert seen == {True, False}
