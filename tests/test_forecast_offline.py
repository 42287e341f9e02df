"""Offline forecaster: nan regression and edge cases."""

import dataclasses

import numpy as np
import pytest

from repro.forecast.offline import OfflineCrisisForecaster
from repro.methods import FingerprintMethod


@pytest.fixture(scope="module")
def method(small_trace):
    m = FingerprintMethod()
    m.fit(small_trace, small_trace.labeled_crises)
    return m


@pytest.fixture(scope="module")
def forecaster(small_trace, method):
    crises = small_trace.labeled_crises
    fc = OfflineCrisisForecaster(
        small_trace, method.thresholds, method.relevant,
        lead_epochs=1, window_epochs=3,
    ).fit(crises[:10])
    return fc, crises


class TestEvaluateNanRegression:
    """evaluate() must not silently report recall=nan (satellite fix)."""

    def test_no_detected_crises_raises(self, forecaster, small_trace):
        fc, crises = forecaster
        undetected = [
            dataclasses.replace(c, detected_epoch=None)
            for c in crises[10:]
        ]
        with pytest.raises(ValueError, match="n_crises=0"):
            fc.evaluate(undetected, threshold=0.5)

    def test_empty_crisis_list_raises(self, forecaster):
        fc, _ = forecaster
        with pytest.raises(ValueError, match="n_crises=0"):
            fc.evaluate([], threshold=0.5)


class TestEdgeCases:
    def test_unfitted_scoring_raises(self, small_trace, method):
        fc = OfflineCrisisForecaster(
            small_trace, method.thresholds, method.relevant
        )
        with pytest.raises(RuntimeError, match="not fitted"):
            fc.score_epochs(np.arange(5))

    def test_fit_with_no_positive_windows_raises(
        self, small_trace, method
    ):
        fc = OfflineCrisisForecaster(
            small_trace, method.thresholds, method.relevant
        )
        crises = small_trace.labeled_crises
        undetected = [
            dataclasses.replace(c, detected_epoch=None) for c in crises
        ]
        with pytest.raises(ValueError, match="no positive epochs"):
            fc.fit(undetected)

    def test_early_detection_has_empty_positive_window(
        self, small_trace, method
    ):
        """A crisis detected at epoch <= lead contributes no positives."""
        fc = OfflineCrisisForecaster(
            small_trace, method.thresholds, method.relevant,
            lead_epochs=2, window_epochs=4,
        )
        crisis = dataclasses.replace(
            small_trace.labeled_crises[0], detected_epoch=1
        )
        assert fc._positive_epochs(crisis).size == 0
        with pytest.raises(ValueError, match="no positive epochs"):
            fc.fit([crisis])

    def test_all_anomalous_exclusion_mask_raises(
        self, small_trace, method, monkeypatch
    ):
        fc = OfflineCrisisForecaster(
            small_trace, method.thresholds, method.relevant,
        ).fit(small_trace.labeled_crises[:10])
        monkeypatch.setattr(
            fc, "_exclusion_mask",
            lambda: np.ones(small_trace.n_epochs, dtype=bool),
        )
        with pytest.raises(ValueError, match="no crisis-free epochs"):
            fc.calibrate_threshold()
        with pytest.raises(ValueError, match="no crisis-free epochs"):
            fc.evaluate(small_trace.labeled_crises[10:])

    def test_invalid_windows_rejected(self, small_trace, method):
        with pytest.raises(ValueError, match="positive"):
            OfflineCrisisForecaster(
                small_trace, method.thresholds, method.relevant,
                lead_epochs=0,
            )
