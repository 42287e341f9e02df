"""The epoch-state engine: one owner of the method's always-on bookkeeping.

The paper's method is a single data plane — quantile stream → hot/cold
thresholds over a trailing crisis-free window → summary vectors →
fingerprint → identify — but the repo grew four consumers of it: the
offline :class:`~repro.methods.fingerprints.FingerprintMethod`, the replay
:class:`~repro.core.pipeline.FingerprintPipeline`, the live
:class:`~repro.core.streaming.StreamingCrisisMonitor`, and the evaluation
harness's ``OnlineIdentificationExperiment``.  This module is the one
implementation all four share (see ``docs/engine.md``):

* :class:`RollingThresholdTracker` — an incremental order-statistic
  structure that maintains the trailing crisis-free threshold window and
  answers cold/hot percentile queries **bit-identically** to
  :func:`~repro.core.thresholds.percentile_thresholds` over the same
  window, without re-scanning W epochs per refresh (the Section 6.3
  bookkeeping cost);
* :class:`ThresholdSeries` — thresholds "as of epoch e" over a recorded
  trace, served incrementally (replay, evaluation);
* :class:`EpochStateEngine` — the live path: owns the tracker (whose
  ring is the live monitor's only record of past epochs), the current
  thresholds, and the refresh cadence, with every epoch length derived
  from an :class:`~repro.telemetry.epochs.EpochClock` instead of a
  hardcoded epochs-per-day constant;
* :func:`fingerprint_from_window` / :func:`fingerprint_from_summaries` —
  the single fingerprint-recomputation kernel (recompute-on-parameter-
  change, Section 6.3), shared so every plane averages summary vectors in
  exactly the same floating-point order.

Incremental tracker design
--------------------------
Only two extreme order statistics per (metric, quantile) series are ever
queried — the cold (2nd) and hot (98th) percentile — so the tracker does
not keep each series fully sorted.  Per series it maintains a sorted
*head* (the smallest ~cold-fraction values plus slack) and a sorted
*tail* (the largest ~(100-hot)-fraction values plus slack) over the
values currently in the window, alongside a ring buffer of every raw
epoch in the window (anomalous ones included, but not admitted).
Admitting an epoch touches a head/tail only when the value lands inside
it (a ~4% event in steady state at 2/98), eviction removes by binary
search, and the percentile query interpolates directly between the two
neighboring order statistics using numpy's own linear-method
arithmetic, so the result is the same IEEE-754 value
``np.percentile``/``np.nanpercentile`` would produce.  When evictions
erode a head/tail below what the query needs (a bounded-random-walk
event made rare by the slack), that one series is rebuilt from the ring
in O(W log W).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.config import FingerprintingConfig
from repro.core.summary import summary_vectors
from repro.core.thresholds import QuantileThresholds, percentile_thresholds
from repro.telemetry.epochs import EpochClock

#: Extra sorted slots kept beyond what the percentile query strictly
#: needs.  Evictions shrink a head/tail by at most one slot each, so a
#: rebuild happens at most once per ``_SLACK`` net evictions per series.
_SLACK = 64


def _lerp(a: np.ndarray, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """numpy's linear-interpolation kernel, replicated operation-for-
    operation (``numpy.lib._function_base_impl._lerp``) so interpolated
    percentiles match ``np.percentile`` bit-for-bit."""
    diff_b_a = np.subtract(b, a)
    lerp = np.asarray(np.add(a, diff_b_a * t))
    np.subtract(b, diff_b_a * (1 - t), out=lerp, where=t >= 0.5)
    return lerp


def _virtual_indexes(
    counts: np.ndarray, percentile: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-series (previous, next, gamma) for numpy's linear method.

    ``counts`` holds the number of non-NaN values in each series.  The
    virtual index is ``(n - 1) * q``; indexes at or above ``n - 1`` clamp
    to the last element (then ``previous == next`` and gamma is moot).
    """
    q = np.true_divide(percentile, 100)
    virt = (counts - 1) * q
    prev = np.floor(virt)
    gamma = virt - prev
    above = virt >= counts - 1
    prev = np.where(above, counts - 1, prev).astype(np.intp)
    nxt = np.minimum(prev + 1, counts - 1).astype(np.intp)
    return prev, nxt, gamma


class RollingThresholdTracker:
    """Incremental cold/hot percentiles over a trailing epoch window.

    Time advances one epoch per :meth:`append`; the window is the last
    ``window_epochs`` appended epochs, restricted to those admitted as
    crisis-free (``anomalous=False``).  :meth:`thresholds` returns exactly
    what :func:`percentile_thresholds` would over the same window — same
    interpolation, same NaN semantics, same loud failure when a series
    has no reported history.

    The ring keeps every epoch of the window, anomalous ones included, so
    it doubles as the bounded history a checkpoint persists
    (:meth:`values`, :meth:`anomalous_mask`) and :meth:`prime` restores.
    """

    def __init__(
        self,
        n_metrics: int,
        n_quantiles: int,
        window_epochs: int,
        cold_percentile: float = 2.0,
        hot_percentile: float = 98.0,
    ):
        if window_epochs < 1:
            raise ValueError("window_epochs must be positive")
        if not 0.0 <= cold_percentile < hot_percentile <= 100.0:
            raise ValueError("invalid percentile pair")
        self.n_metrics = int(n_metrics)
        self.n_quantiles = int(n_quantiles)
        self.window_epochs = int(window_epochs)
        self.cold_percentile = float(cold_percentile)
        self.hot_percentile = float(hot_percentile)

        W = self.window_epochs
        S = self.n_metrics * self.n_quantiles
        self._S = S
        # Largest sorted-prefix length the cold query can touch is
        # floor(q*(n-1)) + 2 at n == W; symmetrically for the suffix.
        need_head = int(np.floor(W * (self.cold_percentile / 100))) + 2
        need_tail = W - int(np.floor((W - 1) * (self.hot_percentile / 100)))
        self._h_target = min(W, need_head + _SLACK)
        self._h_cap = min(W, self._h_target + _SLACK)
        self._t_target = min(W, need_tail + _SLACK)
        self._t_cap = min(W, self._t_target + _SLACK)

        self._ring = np.empty((W, S), dtype=float)  # raw epochs in window
        self._alive = np.zeros(W, dtype=bool)  # slot admitted & in window
        self._head = np.empty((S, self._h_cap), dtype=float)
        self._tail = np.empty((S, self._t_cap), dtype=float)
        self._h = np.zeros(S, dtype=np.intp)  # valid head lengths
        self._tl = np.zeros(S, dtype=np.intp)  # valid tail lengths
        self._n_valid = np.zeros(S, dtype=np.intp)  # non-NaN per series
        self._n_win = 0  # admitted epochs in window
        self._t = 0  # epochs appended (time)

    def __len__(self) -> int:
        return self._t

    @property
    def window_count(self) -> int:
        """Admitted (crisis-free) epochs currently in the window."""
        return self._n_win

    # -- maintenance -------------------------------------------------------

    def append(self, values: np.ndarray, anomalous: bool = False) -> None:
        """Advance one epoch; admit ``values`` unless ``anomalous``.

        Anomalous (or quarantined) epochs still advance time — they age
        older epochs out of the trailing window — and are kept in the
        ring, but never contribute to the percentile state, mirroring the
        crisis-free filter of the window query they replace.
        """
        v = np.asarray(values, dtype=float)
        shape = (self.n_metrics, self.n_quantiles)
        if v.shape != shape:
            raise ValueError(f"expected shape {shape}, got {v.shape}")
        slot = self._t % self.window_epochs
        if self._alive[slot]:
            self._evict(self._ring[slot])
            self._alive[slot] = False
            self._n_win -= 1
        self._ring[slot] = v.reshape(self._S)
        if not anomalous:
            self._alive[slot] = True
            self._n_win += 1
            self._admit(self._ring[slot])
        self._t += 1

    def _admit(self, v: np.ndarray) -> None:
        finite = ~np.isnan(v)
        ar = np.arange(self._S)
        # The head invariant — head[:h] is the h smallest finite values of
        # the window — admits v in exactly two cases: v lands inside the
        # current prefix, or the head covers the whole series (h == number
        # of finite values) so any v extends the prefix.  A v above an
        # eroded, non-covering head must NOT be inserted: its rank among
        # the untracked values is unknown.
        h = self._h
        head_max = self._head[ar, np.maximum(h - 1, 0)]
        covers = self._n_valid == h
        into_head = finite & (
            (covers & (h < self._h_target)) | ((h > 0) & (v <= head_max))
        )
        t = self._tl
        tail_min = self._tail[ar, 0]
        covers_t = self._n_valid == t
        into_tail = finite & (
            (covers_t & (t < self._t_target)) | ((t > 0) & (v >= tail_min))
        )
        self._n_valid[finite] += 1
        for s in np.flatnonzero(into_head):
            n = self._h[s]
            row = self._head[s]
            pos = np.searchsorted(row[:n], v[s])
            if n == self._h_cap:
                # Full: inserting the new value evicts the current
                # maximum, keeping head[:n] the n smallest.
                if pos < n:
                    row[pos + 1 : n] = row[pos : n - 1]
                    row[pos] = v[s]
            else:
                row[pos + 1 : n + 1] = row[pos:n]
                row[pos] = v[s]
                self._h[s] = n + 1
        for s in np.flatnonzero(into_tail):
            n = self._tl[s]
            row = self._tail[s]
            pos = np.searchsorted(row[:n], v[s])
            if n == self._t_cap:
                # Full: inserting evicts the current minimum.
                if pos > 0:
                    row[: pos - 1] = row[1:pos]
                    row[pos - 1] = v[s]
            else:
                row[pos + 1 : n + 1] = row[pos:n]
                row[pos] = v[s]
                self._tl[s] = n + 1

    def _evict(self, v: np.ndarray) -> None:
        finite = ~np.isnan(v)
        self._n_valid[finite] -= 1
        ar = np.arange(self._S)
        h = self._h
        head_max = self._head[ar, np.maximum(h - 1, 0)]
        # A value at most the head's maximum is *in* the head (the head is
        # the h smallest values of the window multiset; ties included).
        in_head = finite & (h > 0) & (v <= head_max)
        for s in np.flatnonzero(in_head):
            n = self._h[s]
            row = self._head[s]
            pos = np.searchsorted(row[:n], v[s])
            row[pos : n - 1] = row[pos + 1 : n]
            self._h[s] = n - 1
        t = self._tl
        tail_min = self._tail[ar, 0]
        in_tail = finite & (t > 0) & (v >= tail_min)
        for s in np.flatnonzero(in_tail):
            n = self._tl[s]
            row = self._tail[s]
            pos = np.searchsorted(row[:n], v[s])
            row[pos : n - 1] = row[pos + 1 : n]
            self._tl[s] = n - 1

    def _rebuild(self, s: int) -> None:
        """Re-sort one series from the ring (rare: slack exhausted)."""
        col = self._ring[self._alive, s]
        col = np.sort(col[~np.isnan(col)])
        n = col.size
        self._n_valid[s] = n
        h = min(n, self._h_target)
        self._head[s, :h] = col[:h]
        self._h[s] = h
        t = min(n, self._t_target)
        self._tail[s, :t] = col[n - t :]
        self._tl[s] = t

    def prime(
        self,
        values: np.ndarray,
        anomalous: np.ndarray,
        epochs: Optional[int] = None,
    ) -> None:
        """Bulk-load a history, as if each epoch had been appended.

        ``values`` and ``anomalous`` hold the last ``len(values)`` of
        ``epochs`` appended epochs (default: the whole history), oldest
        first; each row lands in the ring slot of its absolute epoch.
        They must cover the window, i.e. at least ``min(epochs,
        window_epochs)`` rows.  Used on checkpoint restore, in one
        vectorized pass rather than a replay epoch by epoch.
        """
        values = np.asarray(values, dtype=float)
        anomalous = np.asarray(anomalous, dtype=bool)
        n = values.shape[0]
        if values.shape[1:] != (self.n_metrics, self.n_quantiles) or \
                anomalous.shape != (n,):
            raise ValueError("history shape mismatch")
        epochs = n if epochs is None else int(epochs)
        W = self.window_epochs
        if epochs < n:
            raise ValueError(f"{n} rows cannot be the last of {epochs} epochs")
        if n < min(epochs, W):
            raise ValueError(
                f"{n} rows do not cover a {W}-epoch window at epoch {epochs}"
            )
        start = max(epochs - W, 0)
        self._t = epochs
        self._alive[:] = False
        window = values[n - (epochs - start):].reshape(-1, self._S)
        keep = ~anomalous[n - (epochs - start):]
        slots = np.arange(start, epochs) % W
        self._ring[slots] = window
        self._alive[slots] = keep
        admitted = window[keep]
        self._n_win = admitted.shape[0]
        self._h[:] = 0
        self._tl[:] = 0
        self._n_valid[:] = 0
        if not self._n_win:
            return
        srt = np.sort(admitted, axis=0)  # NaNs sort to the end
        self._n_valid[:] = np.count_nonzero(~np.isnan(admitted), axis=0)
        h = np.minimum(self._n_valid, self._h_target)
        rows = min(self._n_win, self._h_target)
        self._head[:, :rows] = srt[:rows].T
        self._h[:] = h
        t = np.minimum(self._n_valid, self._t_target)
        rows = min(self._n_win, self._t_target)
        idx = np.maximum(self._n_valid - t, 0)[None, :] + np.arange(rows)[:, None]
        np.clip(idx, 0, self._n_win - 1, out=idx)
        self._tail[:, :rows] = np.take_along_axis(srt, idx, axis=0).T
        self._tl[:] = t

    # -- query -------------------------------------------------------------

    def thresholds(self) -> QuantileThresholds:
        """Cold/hot percentiles of the current window.

        Raises the same errors :func:`percentile_thresholds` would: fewer
        than two epochs in the window, or a series with no reported
        (non-NaN) history.
        """
        if self._n_win < 2:
            raise ValueError("need at least two epochs of history")
        counts = self._n_valid
        if (counts == 0).any():
            raise ValueError("a metric quantile has no reported history")
        prev_c, nxt_c, gamma_c = _virtual_indexes(counts, self.cold_percentile)
        prev_h, nxt_h, gamma_h = _virtual_indexes(counts, self.hot_percentile)
        short_head = self._h <= nxt_c
        short_tail = self._tl < counts - prev_h
        for s in np.flatnonzero(short_head | short_tail):
            self._rebuild(s)
        ar = np.arange(self._S)
        cold = _lerp(
            self._head[ar, prev_c], self._head[ar, nxt_c], gamma_c
        )
        off = counts - self._tl  # sorted index of each tail's first slot
        hot = _lerp(
            self._tail[ar, prev_h - off], self._tail[ar, nxt_h - off], gamma_h
        )
        shape = (self.n_metrics, self.n_quantiles)
        return QuantileThresholds(
            cold=cold.reshape(shape), hot=hot.reshape(shape)
        )

    # -- history -----------------------------------------------------------

    def _window_slots(self) -> np.ndarray:
        lo = max(self._t - self.window_epochs, 0)
        return np.arange(lo, self._t) % self.window_epochs

    def values(self) -> np.ndarray:
        """Every epoch in the window, oldest first: at most
        ``window_epochs`` rows of shape ``(n_metrics, n_quantiles)``."""
        return self._ring[self._window_slots()].reshape(
            -1, self.n_metrics, self.n_quantiles
        )

    def anomalous_mask(self) -> np.ndarray:
        """Which rows of :meth:`values` were appended anomalous."""
        return ~self._alive[self._window_slots()]


def fingerprint_from_summaries(
    summaries: np.ndarray,
    relevant: np.ndarray,
    n_epochs: Optional[int] = None,
) -> np.ndarray:
    """Average already-discretized summary vectors into a fingerprint.

    ``n_epochs`` truncates the window (counted from its first epoch) for
    the partial fingerprints of the online protocol.  Every data plane
    uses this one kernel so the mean is taken in the same floating-point
    order everywhere — identification distances are compared bitwise in
    the parity tests.
    """
    summaries = np.asarray(summaries)
    if n_epochs is not None:
        summaries = summaries[: max(n_epochs, 1)]
    sub = summaries[:, relevant, :].astype(float)
    return sub.reshape(sub.shape[0], -1).mean(axis=0)


def fingerprint_from_window(
    window: np.ndarray,
    thresholds: QuantileThresholds,
    relevant: np.ndarray,
    n_epochs: Optional[int] = None,
) -> np.ndarray:
    """Discretize a raw quantile window and average it into a fingerprint.

    The recompute-on-parameter-change path of Section 6.3: whenever
    thresholds or the relevant-metric set move, library fingerprints are
    re-derived from the stored raw windows through this function.
    """
    summaries = summary_vectors(np.asarray(window), thresholds)
    return fingerprint_from_summaries(summaries, relevant, n_epochs)


class ThresholdSeries:
    """Thresholds "as of epoch e" over a recorded quantile history.

    Replay and evaluation both ask for thresholds at a sequence of
    (mostly increasing) epochs; this serves those queries from one
    :class:`RollingThresholdTracker` advanced monotonically through the
    recording, falling back to a direct window recompute for
    out-of-order queries.  Results are identical to
    ``percentile_thresholds(trace.threshold_history(e, window))``.
    """

    def __init__(
        self,
        quantiles: np.ndarray,
        anomalous: np.ndarray,
        window_epochs: int,
        cold_percentile: float = 2.0,
        hot_percentile: float = 98.0,
    ):
        self._quantiles = np.asarray(quantiles, dtype=float)
        self._anomalous = np.asarray(anomalous, dtype=bool)
        if self._quantiles.ndim != 3:
            raise ValueError("quantiles must be 3-D")
        if self._anomalous.shape != (self._quantiles.shape[0],):
            raise ValueError("anomalous mask length mismatch")
        self.window_epochs = int(window_epochs)
        self.cold_percentile = float(cold_percentile)
        self.hot_percentile = float(hot_percentile)
        self._tracker = RollingThresholdTracker(
            self._quantiles.shape[1],
            self._quantiles.shape[2],
            self.window_epochs,
            self.cold_percentile,
            self.hot_percentile,
        )
        self._cursor = 0  # epochs fed to the tracker so far

    def _direct(self, epoch: int) -> QuantileThresholds:
        lo = max(epoch - self.window_epochs, 0)
        sel = ~self._anomalous[lo:epoch]
        history = self._quantiles[lo:epoch][sel]
        if history.shape[0] < 2:
            raise ValueError(
                f"not enough crisis-free history before epoch {epoch}"
            )
        return percentile_thresholds(
            history, self.cold_percentile, self.hot_percentile
        )

    def at(self, epoch: int) -> QuantileThresholds:
        """Thresholds over the trailing window ending just before ``epoch``."""
        if epoch < self._cursor or epoch > self._quantiles.shape[0]:
            return self._direct(epoch)
        for e in range(self._cursor, epoch):
            self._tracker.append(
                self._quantiles[e], bool(self._anomalous[e])
            )
        self._cursor = epoch
        if self._tracker.window_count < 2:
            raise ValueError(
                f"not enough crisis-free history before epoch {epoch}"
            )
        return self._tracker.thresholds()


def threshold_series_for(
    trace,
    window_epochs: int,
    cold_percentile: float = 2.0,
    hot_percentile: float = 98.0,
) -> ThresholdSeries:
    """The shared :class:`ThresholdSeries` for a trace.

    Cached on the trace object (alongside the evaluation harness's other
    per-trace caches) so the replay pipeline and every experiment over
    the same trace advance one tracker instead of each rescanning the
    240-day window.
    """
    cache = trace.__dict__.setdefault("_threshold_engines", {})
    key = (int(window_epochs), float(cold_percentile), float(hot_percentile))
    series = cache.get(key)
    if series is None:
        series = cache[key] = ThresholdSeries(
            trace.quantiles, trace.anomalous, window_epochs,
            cold_percentile, hot_percentile,
        )
    return series


class EpochStateEngine:
    """Live epoch state: trailing window, thresholds, cadence.

    The streaming monitor delegates all method state here and keeps only
    protocol logic (detection, identification, the crisis library).  All
    epoch counts — refresh cadence, minimum history, the threshold
    window — derive from the :class:`EpochClock`, never from a hardcoded
    epochs-per-day constant.
    """

    def __init__(
        self,
        n_metrics: int,
        n_quantiles: int,
        config: FingerprintingConfig = FingerprintingConfig(),
        clock: Optional[EpochClock] = None,
        threshold_refresh_epochs: Optional[int] = None,
        min_history_epochs: Optional[int] = None,
    ):
        self.config = config
        self.clock = clock if clock is not None else EpochClock()
        cfg_t = config.thresholds
        self.window_epochs = self.clock.span_epochs(cfg_t.window_days)
        # Paper cadence: refresh daily, start after a week of history.
        self.threshold_refresh_epochs = (
            threshold_refresh_epochs
            if threshold_refresh_epochs is not None
            else self.clock.per_day
        )
        self.min_history_epochs = (
            min_history_epochs
            if min_history_epochs is not None
            else 7 * self.clock.per_day
        )
        self.tracker = RollingThresholdTracker(
            n_metrics, n_quantiles, self.window_epochs,
            cfg_t.cold_percentile, cfg_t.hot_percentile,
        )
        self.thresholds: Optional[QuantileThresholds] = None
        self.epochs_since_refresh = 0
        #: Bumped whenever thresholds change; consumers key derived state
        #: (e.g. re-discretized library fingerprints) off this.
        self.version = 0

    @property
    def ready(self) -> bool:
        return self.thresholds is not None

    def observe(
        self, values: np.ndarray, anomalous: bool, frozen: bool = False
    ) -> Tuple[int, bool]:
        """Ingest one epoch; returns ``(epoch_index, thresholds_refreshed)``.

        ``frozen`` quarantines the epoch (quality gate): it is stored
        flagged anomalous so it can never enter a threshold window, and
        the refresh countdown does not advance.
        """
        epoch = len(self.tracker)
        self.tracker.append(values, anomalous or frozen)
        if frozen:
            return epoch, False
        self.epochs_since_refresh += 1
        refreshed = False
        if (
            self.thresholds is None
            and len(self.tracker) >= self.min_history_epochs
        ) or self.epochs_since_refresh >= self.threshold_refresh_epochs:
            refreshed = self.refresh_thresholds()
            self.epochs_since_refresh = 0
        return epoch, refreshed

    def refresh_thresholds(self) -> bool:
        """Recompute thresholds from the trailing window (if populated)."""
        if self.tracker.window_count < 2:
            return False
        self.thresholds = self.tracker.thresholds()
        self.version += 1
        return True


__all__ = [
    "EpochStateEngine",
    "RollingThresholdTracker",
    "ThresholdSeries",
    "fingerprint_from_summaries",
    "fingerprint_from_window",
    "threshold_series_for",
]
