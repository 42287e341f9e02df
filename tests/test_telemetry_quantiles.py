"""Tests for repro.telemetry.quantiles, including property-based checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.telemetry.quantiles import (
    empirical_quantiles,
    summarize_chunk,
    summarize_epoch,
)


class TestEmpiricalQuantiles:
    def test_median_of_odd_sample(self):
        vals = np.array([5.0, 1.0, 3.0])
        assert empirical_quantiles(vals, [0.5])[0] == 3.0

    def test_order_statistic_definition(self):
        # ceil(N*p)-th ordered value: N=4, p=0.25 -> 1st value.
        vals = np.array([10.0, 20.0, 30.0, 40.0])
        np.testing.assert_array_equal(
            empirical_quantiles(vals, [0.25, 0.5, 0.95]),
            [10.0, 20.0, 40.0],
        )

    def test_extremes(self):
        vals = np.arange(10.0)
        assert empirical_quantiles(vals, [0.0])[0] == 0.0
        assert empirical_quantiles(vals, [1.0])[0] == 9.0

    def test_nan_samples_dropped(self):
        vals = np.array([np.nan, 1.0, 2.0, np.nan, 3.0])
        assert empirical_quantiles(vals, [0.5])[0] == 2.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            empirical_quantiles(np.array([]), [0.5])
        with pytest.raises(ValueError):
            empirical_quantiles(np.array([np.nan]), [0.5])

    def test_invalid_quantile_raises(self):
        with pytest.raises(ValueError):
            empirical_quantiles(np.array([1.0]), [1.5])

    @given(
        hnp.arrays(
            np.float64,
            st.integers(1, 60),
            elements=st.floats(-1e6, 1e6, allow_nan=False),
        ),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_result_is_observed_value_with_correct_mass(self, vals, q):
        x = empirical_quantiles(vals, [q])[0]
        assert x in vals
        # At least a fraction q of samples are <= x.
        assert np.mean(vals <= x) >= q - 1e-12


class TestSummarizeEpoch:
    def test_shape(self):
        samples = np.random.default_rng(0).normal(size=(50, 7))
        out = summarize_epoch(samples, [0.25, 0.5, 0.95])
        assert out.shape == (7, 3)

    def test_matches_per_metric_computation(self):
        rng = np.random.default_rng(1)
        samples = rng.gamma(2.0, 3.0, size=(33, 5))
        out = summarize_epoch(samples, [0.25, 0.5, 0.95])
        for m in range(5):
            np.testing.assert_array_equal(
                out[m], empirical_quantiles(samples[:, m], [0.25, 0.5, 0.95])
            )

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            summarize_epoch(np.zeros(5), [0.5])
        with pytest.raises(ValueError):
            summarize_epoch(np.zeros((0, 3)), [0.5])


class TestSummarizeChunk:
    def test_matches_epoch_by_epoch(self):
        rng = np.random.default_rng(2)
        chunk = rng.normal(size=(4, 20, 6))
        out = summarize_chunk(chunk, [0.25, 0.5, 0.95])
        assert out.shape == (4, 6, 3)
        for e in range(4):
            np.testing.assert_array_equal(
                out[e], summarize_epoch(chunk[e], [0.25, 0.5, 0.95])
            )

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            summarize_chunk(np.zeros((3, 4)), [0.5])
