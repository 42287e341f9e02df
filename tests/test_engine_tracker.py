"""Property tests for the incremental threshold tracker (hypothesis).

:class:`~repro.core.engine.RollingThresholdTracker` promises *bit-parity*:
over any admit/evict/NaN sequence its ``thresholds()`` must equal what
:func:`~repro.core.thresholds.percentile_thresholds` (i.e.
``np.nanpercentile``) returns over the same live window — including the
loud failures for short windows and all-NaN series.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.engine import RollingThresholdTracker
from repro.core.thresholds import percentile_thresholds

M, Q = 2, 2

# Values drawn partly from a tiny pool so exact ties (duplicate order
# statistics) are common, plus NaN gaps like real telemetry.
_value = st.one_of(
    st.sampled_from([0.0, 1.0, 2.5, -3.0]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    st.just(np.nan),
)
_epoch = st.tuples(
    hnp.arrays(np.float64, (M, Q), elements=_value), st.booleans()
)
_pairs = st.sampled_from(
    [(2.0, 98.0), (10.0, 90.0), (0.0, 100.0), (25.0, 75.0), (47.0, 53.0)]
)


def _live_window(epochs, window, upto):
    """The reference window: last ``window`` epochs, crisis-free only."""
    recent = epochs[max(0, upto - window):upto]
    vals = [v for v, anomalous in recent if not anomalous]
    if not vals:
        return np.empty((0, M, Q))
    return np.stack(vals)


def _check_history(tracker, epochs, window):
    """The ring holds the last ``window`` epochs, anomalous ones too."""
    recent = epochs[max(0, len(epochs) - window):]
    np.testing.assert_array_equal(
        tracker.values(), np.stack([v for v, _ in recent])
    )
    np.testing.assert_array_equal(
        tracker.anomalous_mask(), [a for _, a in recent]
    )


def _check_parity(tracker, win, cold_p, hot_p, direct=True):
    """Tracker output (including failures) == window recompute; with
    ``direct``, also == ``np.nanpercentile`` called here."""
    if win.shape[0] < 2:
        with pytest.raises(ValueError, match="at least two epochs"):
            tracker.thresholds()
        return
    flat = win.reshape(win.shape[0], -1)
    if np.all(np.isnan(flat), axis=0).any():
        with pytest.raises(ValueError, match="no reported history"):
            tracker.thresholds()
        with pytest.raises(ValueError, match="no reported history"):
            percentile_thresholds(win, cold_p, hot_p)
        return
    got = tracker.thresholds()
    expected = percentile_thresholds(win, cold_p, hot_p)
    np.testing.assert_array_equal(got.cold, expected.cold)
    np.testing.assert_array_equal(got.hot, expected.hot)
    if not direct:
        return
    # And against numpy directly, not just the wrapper.
    np.testing.assert_array_equal(
        got.cold.ravel(), np.nanpercentile(flat, cold_p, axis=0)
    )
    np.testing.assert_array_equal(
        got.hot.ravel(), np.nanpercentile(flat, hot_p, axis=0)
    )


class TestTrackerProperties:
    @given(st.integers(2, 9), st.lists(_epoch, min_size=1, max_size=36))
    @settings(max_examples=120, deadline=None)
    def test_random_stream_matches_window_recompute(self, window, epochs):
        """After every append the tracker equals a full recompute."""
        tracker = RollingThresholdTracker(M, Q, window)
        for i, (values, anomalous) in enumerate(epochs):
            tracker.append(values, anomalous)
            win = _live_window(epochs, window, i + 1)
            assert len(tracker) == i + 1
            assert tracker.window_count == win.shape[0]
            _check_history(tracker, epochs[: i + 1], window)
            _check_parity(tracker, win, 2.0, 98.0)

    @given(
        st.integers(2, 9), st.lists(_epoch, min_size=1, max_size=30), _pairs
    )
    @settings(max_examples=100, deadline=None)
    def test_nondefault_percentile_pairs(self, window, epochs, pair):
        cold_p, hot_p = pair
        tracker = RollingThresholdTracker(M, Q, window, cold_p, hot_p)
        for values, anomalous in epochs:
            tracker.append(values, anomalous)
        _check_parity(
            tracker, _live_window(epochs, window, len(epochs)), cold_p, hot_p
        )

    @given(st.integers(2, 9), st.lists(_epoch, min_size=1, max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_prime_equals_streaming(self, window, epochs):
        """Bulk-loading a history == appending it epoch by epoch."""
        values = np.stack([v for v, _ in epochs])
        anomalous = np.array([a for _, a in epochs])
        streamed = RollingThresholdTracker(M, Q, window)
        for v, a in epochs:
            streamed.append(v, a)
        primed = RollingThresholdTracker(M, Q, window)
        primed.prime(values, anomalous)
        assert len(primed) == len(streamed)
        assert primed.window_count == streamed.window_count
        _check_history(primed, epochs, window)
        _check_history(streamed, epochs, window)
        _check_parity(
            primed, _live_window(epochs, window, len(epochs)), 2.0, 98.0
        )
        # Priming from just the window the ring holds (a checkpoint's
        # bounded history) is the same state as priming the whole history.
        bounded = RollingThresholdTracker(M, Q, window)
        bounded.prime(streamed.values(), streamed.anomalous_mask(),
                      len(streamed))
        assert len(bounded) == len(streamed)
        assert bounded.window_count == streamed.window_count
        _check_history(bounded, epochs, window)
        # All must keep evolving identically after the bulk load.
        rng = np.random.default_rng(0)
        for v in rng.normal(size=(window + 3, M, Q)):
            for tracker in (streamed, primed, bounded):
                tracker.append(v)
            if streamed.window_count < 2:
                continue
            a = streamed.thresholds()
            for tracker in (primed, bounded):
                b = tracker.thresholds()
                np.testing.assert_array_equal(a.cold, b.cold)
                np.testing.assert_array_equal(a.hot, b.hot)


def _variant_stream(rng, n_epochs, shape, n_variants, anomalous_rate,
                    nan_rate=0.05, drift=None):
    """Epochs drawn from a small pool of value variants, as real epochs
    repeat: many exact ties (+0.0 and -0.0 among them), NaN gaps and
    anomalous epochs.  ``drift`` is ``(start, stop, slope)``: epochs in
    ``[start, stop)`` add ``slope`` per epoch, which erodes the heads
    (slope > 0) or the tails (slope < 0) past their slack."""
    pool = np.round(rng.normal(0.0, 2.0, (n_variants,) + shape), 1)
    special = rng.random(pool.shape) < 0.3
    pool[special] = rng.choice([0.0, -0.0, 1.0, 2.5, -3.0], special.sum())
    epochs = []
    for e in range(n_epochs):
        v = pool[rng.integers(n_variants)].copy()
        if drift is not None and drift[0] <= e < drift[1]:
            v += drift[2] * (e - drift[0])
        v[rng.random(shape) < nan_rate] = np.nan
        epochs.append((v, bool(rng.random() < anomalous_rate)))
    return epochs


def _drive(epochs, window, cold_p, hot_p, every, direct=True):
    """Append ``epochs``, querying every ``every`` epochs.

    Each query is checked against the window recompute (see
    :func:`_check_parity`) and against a tracker primed, at the previous
    query, from the state a checkpoint keeps (``values()``,
    ``anomalous_mask()``, ``len``), which has appended the same epochs
    since.
    """
    shape = epochs[0][0].shape
    tracker = RollingThresholdTracker(*shape, window, cold_p, hot_p)
    primed = None
    for i, (values, anomalous) in enumerate(epochs):
        tracker.append(values, anomalous)
        if primed is not None:
            primed.append(values, anomalous)
        if (i + 1) % every:
            continue
        _check_parity(
            tracker, _live_window(epochs, window, i + 1), cold_p, hot_p,
            direct,
        )
        if primed is not None:
            assert len(primed) == len(tracker)
            assert primed.window_count == tracker.window_count
            if tracker.window_count >= 2:
                a, b = tracker.thresholds(), primed.thresholds()
                np.testing.assert_array_equal(a.cold, b.cold)
                np.testing.assert_array_equal(a.hot, b.hot)
        primed = RollingThresholdTracker(*shape, window, cold_p, hot_p)
        primed.prime(tracker.values(), tracker.anomalous_mask(), len(tracker))
    return tracker


class TestTrackerPastTheSlack:
    """Windows long enough that heads and tails are shorter than the
    window: they fill to their caps (insert, then drop the far end) and
    erode under a drift (the rebuild from the ring)."""

    @given(
        st.integers(140, 320),
        st.sampled_from([(2.0, 98.0), (10.0, 90.0)]),
        st.integers(0, 2**32 - 1),
        st.integers(3, 16),
        st.sampled_from([0.0, 0.1, 0.3]),
        st.sampled_from([-0.5, -0.05, 0.05, 0.5]),
    )
    @settings(max_examples=20, deadline=None)
    def test_variant_stream_matches_window_recompute(
        self, window, pair, seed, n_variants, anomalous_rate, slope
    ):
        rng = np.random.default_rng(seed)
        # The drift outlasts the window, so every value it found there is
        # evicted while the drifting ones pass its heads (or tails) by.
        start = int(rng.integers(window // 2, window + 1))
        stop = start + window + int(rng.integers(0, 100))
        epochs = _variant_stream(
            rng, stop + 100, (M, Q), n_variants, anomalous_rate,
            drift=(start, stop, slope),
        )
        _drive(epochs, window, *pair, every=window // 8)

    def test_crisis_online_shape(self):
        """100 metrics x 3 quantiles, a 300-epoch window, 16 repeating
        variants with no gaps, 900 epochs, thresholds every 10th epoch
        (checked against ``percentile_thresholds``: ``np.nanpercentile``
        runs column by column, too slow for 90 checks of 300 series)."""
        rng = np.random.default_rng(11)
        epochs = _variant_stream(rng, 900, (100, 3), 16, 0.2, nan_rate=0.0)
        tracker = _drive(epochs, 300, 2.0, 98.0, every=10, direct=False)
        assert len(tracker) == 900

    def test_ingest_batch_shape(self):
        """32 metrics x 3 quantiles in a 10-epoch window: every head and
        tail is the whole window, touched by every admit and evict."""
        rng = np.random.default_rng(12)
        epochs = _variant_stream(rng, 130, (32, 3), 16, 0.05)
        tracker = _drive(epochs, 10, 2.0, 98.0, every=10)
        assert len(tracker) == 130


class TestTrackerContracts:
    def test_drifting_stream_forces_rebuilds(self):
        """A strong trend erodes the sorted head/tail past their slack,
        exercising the rebuild path; parity must survive it."""
        rng = np.random.default_rng(7)
        W = 64
        tracker = RollingThresholdTracker(M, Q, W, 10.0, 90.0)
        history = []
        for t in range(400):
            v = np.round(rng.normal(loc=t * 0.5, size=(M, Q)), 1)
            if rng.random() < 0.08:
                v[rng.integers(M), rng.integers(Q)] = np.nan
            anomalous = rng.random() < 0.2
            history.append((v, anomalous))
            tracker.append(v, anomalous)
            if t >= 3 and t % 7 == 0:
                _check_parity(
                    tracker, _live_window(history, W, t + 1), 10.0, 90.0
                )

    def test_all_nan_series_fails_loudly(self):
        tracker = RollingThresholdTracker(M, Q, 8)
        v = np.ones((M, Q))
        v[0, 0] = np.nan
        for _ in range(4):
            tracker.append(v)
        with pytest.raises(ValueError, match="no reported history"):
            tracker.thresholds()
        # Same promise as the batch path over the same window.
        with pytest.raises(ValueError, match="no reported history"):
            percentile_thresholds(np.repeat(v[None], 4, axis=0))

    def test_needs_two_admitted_epochs(self):
        tracker = RollingThresholdTracker(M, Q, 8)
        tracker.append(np.ones((M, Q)))
        tracker.append(np.ones((M, Q)), anomalous=True)
        with pytest.raises(ValueError, match="at least two epochs"):
            tracker.thresholds()

    def test_anomalous_epochs_age_out_older_history(self):
        """Anomalous epochs advance time: they push old epochs out of the
        trailing window even though they are never admitted themselves."""
        tracker = RollingThresholdTracker(1, 1, 3)
        tracker.append(np.array([[1.0]]))
        tracker.append(np.array([[2.0]]))
        for _ in range(3):
            tracker.append(np.array([[99.0]]), anomalous=True)
        assert tracker.window_count == 0
        assert len(tracker) == 5

    def test_append_validates_shape(self):
        """A row must be ``(n_metrics, n_quantiles)``: a transposed one has
        the right size, and would silently scramble the series."""
        tracker = RollingThresholdTracker(4, 3, 8)
        for bad in (np.zeros((3, 3)), np.zeros((3, 4)), np.zeros(12)):
            with pytest.raises(ValueError, match="expected shape"):
                tracker.append(bad)
        assert len(tracker) == 0
        tracker.append(np.zeros((4, 3)))
        assert len(tracker) == 1

    def test_prime_needs_the_window(self):
        """``prime`` takes the last rows of a longer history, but they
        must cover the window and cannot outnumber the epochs."""
        rng = np.random.default_rng(3)
        values = rng.normal(size=(5, M, Q))
        flags = np.zeros(5, dtype=bool)
        tracker = RollingThresholdTracker(M, Q, 5)
        tracker.prime(values, flags, epochs=40)
        assert len(tracker) == 40
        np.testing.assert_array_equal(tracker.values(), values)
        with pytest.raises(ValueError, match="do not cover"):
            RollingThresholdTracker(M, Q, 6).prime(values, flags, epochs=40)
        with pytest.raises(ValueError, match="cannot be the last"):
            tracker.prime(values, flags, epochs=4)
        with pytest.raises(ValueError, match="shape mismatch"):
            tracker.prime(values, flags[:4])
        with pytest.raises(ValueError, match="shape mismatch"):
            tracker.prime(values.reshape(5, M * Q, 1), flags)

    def test_validates_parameters(self):
        with pytest.raises(ValueError, match="window_epochs"):
            RollingThresholdTracker(M, Q, 0)
        with pytest.raises(ValueError, match="percentile"):
            RollingThresholdTracker(M, Q, 8, 98.0, 2.0)
