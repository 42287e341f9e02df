"""Tests for the streaming quantile estimators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.sketches import GKQuantileSketch


class TestGKSketch:
    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            GKQuantileSketch(eps=0.0)
        with pytest.raises(ValueError):
            GKQuantileSketch(eps=1.0)

    def test_empty_query_raises(self):
        with pytest.raises(ValueError):
            GKQuantileSketch().query(0.5)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            GKQuantileSketch().insert(float("nan"))

    def test_exact_on_small_stream(self):
        sk = GKQuantileSketch(eps=0.01)
        vals = [5.0, 1.0, 9.0, 3.0, 7.0]
        sk.extend(vals)
        assert sk.query(0.5) == 5.0

    @pytest.mark.parametrize("q", [0.05, 0.25, 0.5, 0.95])
    def test_rank_error_bound(self, q):
        rng = np.random.default_rng(7)
        vals = rng.normal(size=5000)
        eps = 0.02
        sk = GKQuantileSketch(eps=eps)
        sk.extend(vals)
        est = sk.query(q)
        # Rank of estimate must be within eps*n of target rank.
        rank = np.sum(np.sort(vals) <= est)
        target = max(int(np.ceil(q * len(vals))), 1)
        assert abs(rank - target) <= 2 * eps * len(vals)

    def test_space_sublinear(self):
        rng = np.random.default_rng(8)
        sk = GKQuantileSketch(eps=0.05)
        sk.extend(rng.normal(size=20000))
        assert sk.size < 2000  # far below n

    def test_monotone_queries(self):
        rng = np.random.default_rng(9)
        sk = GKQuantileSketch(eps=0.02)
        sk.extend(rng.uniform(size=3000))
        qs = [sk.query(q) for q in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert qs == sorted(qs)

    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False),
                    min_size=1, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_query_returns_observed_value(self, vals):
        sk = GKQuantileSketch(eps=0.05)
        sk.extend(vals)
        assert sk.query(0.5) in vals
