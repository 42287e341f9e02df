"""Tests for forecaster threshold calibration."""

import numpy as np
import pytest

from repro.forecast.offline import OfflineCrisisForecaster
from repro.methods import FingerprintMethod


@pytest.fixture(scope="module")
def forecaster(small_trace):
    method = FingerprintMethod()
    crises = small_trace.labeled_crises
    method.fit(small_trace, crises)
    fc = OfflineCrisisForecaster(
        small_trace, method.thresholds, method.relevant,
        lead_epochs=1, window_epochs=3,
    ).fit(crises[:10])
    return fc, crises


class TestCalibrateThreshold:
    def test_respects_false_alarm_budget(self, forecaster):
        fc, crises = forecaster
        threshold = fc.calibrate_threshold(false_alarm_budget=0.02)
        result = fc.evaluate(crises[10:], threshold=threshold,
                             n_normal=1500)
        # Holdout false alarms should stay near the budget.
        assert result.false_alarm_rate <= 0.10

    def test_smaller_budget_stricter(self, forecaster):
        fc, _ = forecaster
        loose = fc.calibrate_threshold(false_alarm_budget=0.10)
        strict = fc.calibrate_threshold(false_alarm_budget=0.005)
        assert strict >= loose

    def test_threshold_in_unit_interval(self, forecaster):
        fc, _ = forecaster
        t = fc.calibrate_threshold()
        assert 0.0 <= t <= 1.0

    def test_deterministic(self, forecaster):
        fc, _ = forecaster
        a = fc.calibrate_threshold(seed=5)
        b = fc.calibrate_threshold(seed=5)
        assert a == b

    def test_positional_budget_still_works(self, forecaster):
        fc, _ = forecaster
        assert fc.calibrate_threshold(0.10) == fc.calibrate_threshold(
            false_alarm_budget=0.10
        )
