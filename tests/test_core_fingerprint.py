"""Tests for epoch and crisis fingerprints."""

import numpy as np
import pytest

from repro.config import FingerprintConfig
from repro.core.fingerprint import CrisisFingerprint, crisis_fingerprint
from repro.core.thresholds import QuantileThresholds

#: An epoch fingerprint is a crisis fingerprint over a one-epoch window.
ONE_EPOCH = FingerprintConfig(pre_epochs=0, post_epochs=0)


def thresholds(n_metrics, n_q=3):
    return QuantileThresholds(
        cold=np.full((n_metrics, n_q), -1.0),
        hot=np.full((n_metrics, n_q), 1.0),
    )


def quantile_trace(n_epochs=30, n_metrics=6, n_q=3, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 0.3, (n_epochs, n_metrics, n_q))


class TestEpochFingerprints:
    def test_shape_restricts_to_relevant(self):
        q = quantile_trace()
        fp = crisis_fingerprint(q, thresholds(6), np.array([0, 3]),
                                detection_epoch=12, config=ONE_EPOCH)
        assert fp.n_epochs == 1
        assert fp.vector.shape == (2 * 3,)

    def test_hot_cold_encoding(self):
        q = np.zeros((1, 3, 3))
        q[0, 0, :] = 5.0  # hot
        q[0, 2, :] = -5.0  # cold
        fp = crisis_fingerprint(q, thresholds(3), np.array([2, 0]),
                                detection_epoch=0, config=ONE_EPOCH)
        np.testing.assert_array_equal(fp.vector, [-1, -1, -1, 1, 1, 1])

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            crisis_fingerprint(np.zeros((2, 3)), thresholds(2),
                               np.array([0]), detection_epoch=0)


class TestCrisisFingerprint:
    def test_window_is_pre_through_post(self):
        q = quantile_trace()
        q[10:15] = 10.0  # crisis epochs hot
        fp = crisis_fingerprint(q, thresholds(6), np.arange(6),
                                detection_epoch=10)
        # Window 8..14: 2 normal-ish epochs + 5 hot epochs averaged.
        assert fp.n_epochs == 7
        assert np.all(fp.vector <= 1.0)
        assert fp.vector.mean() > 0.5

    def test_partial_window(self):
        q = quantile_trace()
        fp = crisis_fingerprint(q, thresholds(6), np.arange(6),
                                detection_epoch=10, end_epoch=10)
        assert fp.n_epochs == 3  # -2, -1, 0

    def test_clipping_at_trace_start(self):
        q = quantile_trace()
        fp = crisis_fingerprint(q, thresholds(6), np.arange(6),
                                detection_epoch=0)
        assert fp.n_epochs == 5  # 0..4 only

    def test_empty_window_raises(self):
        q = quantile_trace()
        with pytest.raises(ValueError):
            crisis_fingerprint(q, thresholds(6), np.arange(6),
                               detection_epoch=10, end_epoch=5)

    def test_values_in_unit_interval(self):
        q = quantile_trace(seed=3) * 10
        fp = crisis_fingerprint(q, thresholds(6), np.arange(6),
                                detection_epoch=15)
        assert np.all(np.abs(fp.vector) <= 1.0)

    def test_metadata_carried(self):
        q = quantile_trace()
        fp = crisis_fingerprint(q, thresholds(6), np.array([1, 2]),
                                detection_epoch=10, label="B", crisis_id=4)
        assert fp.label == "B"
        assert fp.crisis_id == 4
        np.testing.assert_array_equal(fp.metric_indices, [1, 2])

    def test_custom_config_window(self):
        q = quantile_trace()
        cfg = FingerprintConfig(pre_epochs=0, post_epochs=1)
        fp = crisis_fingerprint(q, thresholds(6), np.arange(6),
                                detection_epoch=10, config=cfg)
        assert fp.n_epochs == 2


class TestCrisisFingerprintValidation:
    def test_rejects_out_of_range_vector(self):
        with pytest.raises(ValueError):
            CrisisFingerprint(vector=np.array([2.0]),
                              metric_indices=np.array([0]))

    def test_rejects_2d_vector(self):
        with pytest.raises(ValueError):
            CrisisFingerprint(vector=np.zeros((2, 2)),
                              metric_indices=np.array([0]))
