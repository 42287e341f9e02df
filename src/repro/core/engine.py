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

Each head and tail is its own ``array.array('d')`` row, edited in C by
``bisect`` (insert left of ties, delete by binary search), beside numpy
arrays of each head's maximum and each tail's minimum, so one vectorized
comparison per epoch picks the series an admission or eviction touches.
That is the series whose value lands inside its head or tail, a share
of about length/W plus ties, where a head's length runs from what the
query needs plus ``_SLACK`` up to one more ``_SLACK`` (72 to 136 of 300
slots for the 2nd percentile of a 300-epoch window); a window shorter
than that makes every head and tail the whole window, touched by every
admission and eviction.

The percentile query interpolates directly between the two neighboring
order statistics using numpy's own linear-method arithmetic, so the
result is the same IEEE-754 value ``np.percentile``/``np.nanpercentile``
would produce.  When evictions erode a head/tail below what the query
needs (a bounded-random-walk event made rare by the slack), the query
re-sorts every eroded series from the ring in one pass, through the same
row builder a bulk :meth:`RollingThresholdTracker.prime` uses.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, insort_left
from itertools import compress
from operator import getitem
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


def _insert(rows, lengths, ends, end, cap, idx, values) -> None:
    """Insert ``values[i]`` into ``rows[idx[i]]`` left of its ties.

    A row already ``cap`` long first drops its ``end`` value (``-1``: a
    head's maximum, ``0``: a tail's minimum); ``lengths`` and ``ends``
    (each row's ``end`` value) follow the rows.
    """
    picked = [rows[s] for s in idx.tolist()]
    full = lengths[idx] == cap
    for row in compress(picked, full.tolist()):
        row.pop(end)
    for row, x in zip(picked, values.tolist()):
        insort_left(row, x)
    lengths[idx[~full]] += 1
    ends[idx] = _ends(picked, end)


def _remove(rows, lengths, ends, end, idx, values) -> None:
    """Remove one copy of ``values[i]`` from ``rows[idx[i]]``."""
    picked = [rows[s] for s in idx.tolist()]
    for row, x in zip(picked, values.tolist()):
        del row[bisect_left(row, x)]
    lengths[idx] -= 1
    ends[idx] = _ends(picked, end)


def _ends(rows, end: int) -> list:
    """Each row's ``end`` value (``0``: first, ``-1``: last); NaN if empty."""
    return [row[end] if row else np.nan for row in rows]


def _gather(rows, index: np.ndarray) -> np.ndarray:
    """``rows[s][index[s]]`` for every series ``s``."""
    return np.fromiter(
        map(getitem, rows, index.tolist()), dtype=float, count=len(rows)
    )


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
        # One sorted row per series, edited in place by bisect.
        self._heads = [array("d") for _ in range(S)]
        self._tails = [array("d") for _ in range(S)]
        self._h = np.zeros(S, dtype=np.intp)  # head lengths
        self._tl = np.zeros(S, dtype=np.intp)  # tail lengths
        # Each head's last and each tail's first value (NaN when empty),
        # so admission and eviction pick their series in one expression.
        self._head_max = np.full(S, np.nan)
        self._tail_min = np.full(S, np.nan)
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
        # The head invariant — head[:h] is the h smallest finite values of
        # the window — admits v in exactly two cases: v lands inside the
        # current prefix, or the head covers the whole series (h == number
        # of finite values) so any v extends the prefix.  A v above an
        # eroded, non-covering head must NOT be inserted: its rank among
        # the untracked values is unknown.
        h = self._h
        into_head = finite & (
            ((self._n_valid == h) & (h < self._h_target))
            | ((h > 0) & (v <= self._head_max))
        )
        # Symmetrically for the tail, except that a full tail makes room by
        # dropping its minimum, and v lands left of its ties: a v equal to
        # that minimum would take the dropped slot and change nothing.
        t = self._tl
        into_tail = finite & (
            ((self._n_valid == t) & (t < self._t_target))
            | ((t > 0) & (v >= self._tail_min))
        ) & ~((t == self._t_cap) & (v == self._tail_min))
        self._n_valid[finite] += 1
        idx = np.flatnonzero(into_head)
        _insert(
            self._heads, self._h, self._head_max, -1, self._h_cap, idx, v[idx]
        )
        idx = np.flatnonzero(into_tail)
        _insert(
            self._tails, self._tl, self._tail_min, 0, self._t_cap, idx, v[idx]
        )

    def _evict(self, v: np.ndarray) -> None:
        finite = ~np.isnan(v)
        self._n_valid[finite] -= 1
        # A value at most the head's maximum is *in* the head (the head is
        # the h smallest values of the window multiset; ties included).
        idx = np.flatnonzero(finite & (self._h > 0) & (v <= self._head_max))
        _remove(self._heads, self._h, self._head_max, -1, idx, v[idx])
        idx = np.flatnonzero(finite & (self._tl > 0) & (v >= self._tail_min))
        _remove(self._tails, self._tl, self._tail_min, 0, idx, v[idx])

    def _load_rows(self, series: np.ndarray, srt: np.ndarray) -> None:
        """Rebuild the heads and tails of ``series`` from ``srt``, their
        admitted window values as sorted columns (NaNs last)."""
        counts = np.count_nonzero(~np.isnan(srt), axis=0)
        h = np.minimum(counts, self._h_target)
        t = np.minimum(counts, self._t_target)
        heads = [array("d", col[:k].tobytes()) for col, k in zip(srt.T, h)]
        tails = [
            array("d", col[n - k : n].tobytes())
            for col, n, k in zip(srt.T, counts, t)
        ]
        for s, head, tail in zip(series.tolist(), heads, tails):
            self._heads[s] = head
            self._tails[s] = tail
        self._n_valid[series] = counts
        self._h[series] = h
        self._tl[series] = t
        self._head_max[series] = _ends(heads, -1)
        self._tail_min[series] = _ends(tails, 0)

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
        self._load_rows(np.arange(self._S), np.sort(admitted, axis=0))

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
        # Evictions can erode a head or tail below what the query reads
        # (rare: the slack absorbs it); re-sort those series from the ring.
        short = np.flatnonzero(
            (self._h <= nxt_c) | (self._tl < counts - prev_h)
        )
        if short.size:
            alive = np.flatnonzero(self._alive)
            self._load_rows(
                short, np.sort(self._ring[np.ix_(alive, short)], axis=0)
            )
        cold = _lerp(
            _gather(self._heads, prev_c), _gather(self._heads, nxt_c), gamma_c
        )
        off = counts - self._tl  # sorted index of each tail's first slot
        hot = _lerp(
            _gather(self._tails, prev_h - off),
            _gather(self._tails, nxt_h - off),
            gamma_h,
        )
        shape = (self.n_metrics, self.n_quantiles)
        return QuantileThresholds(
            cold=cold.reshape(shape), hot=hot.reshape(shape)
        )

    # -- history -----------------------------------------------------------

    def _window_slots(self, since: Optional[int]) -> np.ndarray:
        lo = max(self._t - self.window_epochs, 0)
        if since is not None:
            lo = max(lo, since)
        return np.arange(lo, self._t) % self.window_epochs

    def values(self, since: Optional[int] = None) -> np.ndarray:
        """Every epoch in the window, oldest first: at most
        ``window_epochs`` rows of shape ``(n_metrics, n_quantiles)``.
        ``since`` keeps only the epochs numbered ``since`` onward."""
        return self._ring[self._window_slots(since)].reshape(
            -1, self.n_metrics, self.n_quantiles
        )

    def anomalous_mask(self, since: Optional[int] = None) -> np.ndarray:
        """Which rows of :meth:`values` were appended anomalous."""
        return ~self._alive[self._window_slots(since)]


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
        return True


__all__ = [
    "EpochStateEngine",
    "RollingThresholdTracker",
    "ThresholdSeries",
    "fingerprint_from_summaries",
    "fingerprint_from_window",
    "threshold_series_for",
]
