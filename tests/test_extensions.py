"""Tests for the future-work extensions: forecasting and evolution."""

import numpy as np
import pytest

from repro.extensions import CrisisEvolutionModel
from repro.forecast.offline import OfflineCrisisForecaster
from repro.methods import FingerprintMethod


@pytest.fixture(scope="module")
def fitted(small_trace):
    method = FingerprintMethod()
    crises = small_trace.labeled_crises
    method.fit(small_trace, crises)
    return method, crises


class TestCrisisForecaster:
    def test_fit_and_score(self, small_trace, fitted):
        method, crises = fitted
        fc = OfflineCrisisForecaster(
            small_trace, method.thresholds, method.relevant,
            lead_epochs=1, window_epochs=3,
        ).fit(crises[:10])
        scores = fc.score_epochs(np.arange(100, 110))
        assert scores.shape == (10,)
        assert np.all((scores >= 0) & (scores <= 1))

    def test_unfitted_raises(self, small_trace, fitted):
        method, _ = fitted
        fc = OfflineCrisisForecaster(small_trace, method.thresholds,
                                     method.relevant)
        with pytest.raises(RuntimeError):
            fc.score_epochs(np.arange(5))

    def test_evaluate_bounds(self, small_trace, fitted):
        method, crises = fitted
        fc = OfflineCrisisForecaster(
            small_trace, method.thresholds, method.relevant,
            lead_epochs=1, window_epochs=3,
        ).fit(crises[:10])
        result = fc.evaluate(crises[10:], threshold=0.5, n_normal=500)
        assert 0.0 <= result.recall <= 1.0
        assert 0.0 <= result.false_alarm_rate <= 1.0
        assert result.n_crises == len(crises[10:])

    def test_normal_epochs_score_low(self, small_trace, fitted):
        """Far from crises, the forecaster should rarely alarm."""
        method, crises = fitted
        fc = OfflineCrisisForecaster(
            small_trace, method.thresholds, method.relevant,
            lead_epochs=1, window_epochs=3,
        ).fit(crises[:10])
        result = fc.evaluate(crises[10:], threshold=0.5, n_normal=1000)
        assert result.false_alarm_rate < 0.3

    def test_validation(self, small_trace, fitted):
        method, _ = fitted
        with pytest.raises(ValueError):
            OfflineCrisisForecaster(small_trace, method.thresholds,
                                    method.relevant, lead_epochs=0)


class TestCrisisEvolutionModel:
    def test_profiles_built_per_label(self, small_trace, fitted):
        method, crises = fitted
        model = CrisisEvolutionModel(
            small_trace, method.thresholds, method.relevant
        ).fit(crises)
        assert "B" in model.profiles
        profile = model.profiles["B"]
        assert profile.n_crises >= 7
        assert profile.mean_duration_epochs > 0

    def test_magnitude_high_during_crisis(self, small_trace, fitted):
        method, crises = fitted
        model = CrisisEvolutionModel(
            small_trace, method.thresholds, method.relevant
        ).fit(crises)
        profile = model.profiles["B"]
        # Early epochs (in crisis) have larger magnitude than the tail
        # (after resolution).
        assert np.nanmean(profile.magnitudes[:4]) > \
            np.nanmean(profile.magnitudes[-4:])

    def test_progress_report(self, small_trace, fitted):
        method, crises = fitted
        model = CrisisEvolutionModel(
            small_trace, method.thresholds, method.relevant
        ).fit(crises[:12])
        live = next(c for c in crises[12:] if c.label in model.profiles)
        report = model.progress(live, live.label, elapsed_epochs=2)
        assert 0.0 <= report["fraction_elapsed"] <= 1.0
        assert report["expected_remaining_epochs"] >= 0.0

    def test_unknown_label_raises(self, small_trace, fitted):
        method, crises = fitted
        model = CrisisEvolutionModel(
            small_trace, method.thresholds, method.relevant
        ).fit(crises)
        with pytest.raises(KeyError):
            model.progress(crises[0], "nope", 1)

    def test_remaining_epochs_clamped(self, small_trace, fitted):
        method, crises = fitted
        model = CrisisEvolutionModel(
            small_trace, method.thresholds, method.relevant
        ).fit(crises)
        profile = model.profiles["B"]
        assert profile.remaining_epochs(10_000) == 0.0
        with pytest.raises(ValueError):
            profile.remaining_epochs(-1)
