"""Tests for repro.config."""

import pytest

from repro.config import (
    FingerprintConfig,
    FingerprintingConfig,
    IdentificationConfig,
    QuantileConfig,
    SelectionConfig,
    ThresholdConfig,
)


class TestQuantileConfig:
    def test_defaults_match_paper(self):
        cfg = QuantileConfig()
        assert cfg.quantiles == (0.25, 0.50, 0.95)
        assert cfg.count == 3

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            QuantileConfig(quantiles=())

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            QuantileConfig(quantiles=(0.5, 1.5))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            QuantileConfig(quantiles=(0.95, 0.25))


class TestThresholdConfig:
    def test_defaults_match_paper(self):
        cfg = ThresholdConfig()
        assert cfg.cold_percentile == 2.0
        assert cfg.hot_percentile == 98.0
        assert cfg.window_days == 240

    def test_rejects_inverted_percentiles(self):
        with pytest.raises(ValueError):
            ThresholdConfig(cold_percentile=98, hot_percentile=2)

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            ThresholdConfig(window_days=0)


class TestSelectionConfig:
    def test_defaults_match_paper(self):
        cfg = SelectionConfig()
        assert cfg.per_crisis_top_k == 10
        assert cfg.crisis_pool == 20

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"per_crisis_top_k": 0},
            {"n_relevant": 0},
            {"crisis_pool": -1},
        ],
    )
    def test_rejects_nonpositive(self, kwargs):
        with pytest.raises(ValueError):
            SelectionConfig(**kwargs)


class TestFingerprintConfig:
    def test_paper_window_is_seven_epochs(self):
        cfg = FingerprintConfig()
        assert (cfg.pre_epochs, cfg.post_epochs) == (2, 4)
        assert cfg.n_epochs == 7

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            FingerprintConfig(pre_epochs=-1)


class TestIdentificationConfig:
    def test_five_identification_epochs(self):
        assert IdentificationConfig().n_epochs == 5

    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            IdentificationConfig(alpha=1.5)
        with pytest.raises(ValueError):
            IdentificationConfig(alpha=-0.1)


class TestFingerprintingConfig:
    def test_with_replaces_section(self):
        cfg = FingerprintingConfig()
        new = cfg.with_(selection=SelectionConfig(n_relevant=15))
        assert new.selection.n_relevant == 15
        assert cfg.selection.n_relevant == 30  # original untouched
        assert new.thresholds == cfg.thresholds

    def test_frozen(self):
        cfg = FingerprintingConfig()
        with pytest.raises(AttributeError):
            cfg.selection = SelectionConfig()
