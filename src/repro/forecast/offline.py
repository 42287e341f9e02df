"""Whole-trace crisis forecasting (the Section 7 demo, rehomed).

This is the historical offline forecaster: L1-logistic regression over
epoch fingerprints of a recorded trace, positives drawn from a lead
window before each crisis's detection.  It needs the full trace in
memory and is kept as the parity baseline the online pipeline must
beat (``benchmarks/test_sec7_forecasting.py``).

Compared to its life under ``repro.extensions`` the forecaster grew
explicit failure modes: calibration and evaluation raise when the
exclusion mask leaves no crisis-free epochs (instead of sampling an
empty pool into NaN quantiles), and :meth:`evaluate` raises when no test
crisis carries a detection epoch (instead of silently reporting
``recall=nan``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.summary import summary_vectors
from repro.core.thresholds import QuantileThresholds
from repro.datacenter.trace import CrisisRecord, DatacenterTrace
from repro.ml.logistic import L1LogisticRegression, LogisticModel


@dataclass(frozen=True)
class OfflineForecastResult:
    """Forecast evaluation on held-out crises."""

    recall: float  # crises with an alarm inside the lead window
    false_alarm_rate: float  # alarm rate on crisis-free epochs
    threshold: float
    n_crises: int


class OfflineCrisisForecaster:
    """Logistic early-warning model over epoch fingerprints."""

    def __init__(
        self,
        trace: DatacenterTrace,
        thresholds: QuantileThresholds,
        relevant: np.ndarray,
        lead_epochs: int = 2,
        window_epochs: int = 4,
        lam: float = 0.002,
    ):
        """``window_epochs`` epochs ending ``lead_epochs`` before detection
        form each crisis's positive examples."""
        if lead_epochs < 1 or window_epochs < 1:
            raise ValueError("lead and window must be positive")
        self.trace = trace
        self.thresholds = thresholds
        self.relevant = np.asarray(relevant, dtype=int)
        self.lead_epochs = lead_epochs
        self.window_epochs = window_epochs
        self.lam = lam
        self.model: Optional[LogisticModel] = None

    def _epoch_vectors(self, epochs: np.ndarray) -> np.ndarray:
        window = self.trace.quantiles[epochs]
        summaries = summary_vectors(window, self.thresholds)
        sub = summaries[:, self.relevant, :].astype(float)
        return sub.reshape(len(epochs), -1)

    def _positive_epochs(self, crisis: CrisisRecord) -> np.ndarray:
        det = crisis.detected_epoch
        hi = det - self.lead_epochs
        lo = max(hi - self.window_epochs, 0)
        return np.arange(lo, hi)

    def _normal_pool(self) -> np.ndarray:
        pool = np.flatnonzero(~self._exclusion_mask())
        if pool.size == 0:
            raise ValueError(
                "no crisis-free epochs available: the exclusion mask "
                "(anomalous epochs plus widened crisis windows) covers "
                "the whole trace"
            )
        return pool

    def fit(
        self,
        crises: Sequence[CrisisRecord],
        n_negative: int = 600,
        seed: int = 0,
    ) -> "OfflineCrisisForecaster":
        """Train on the given (training) crises plus sampled normal epochs."""
        rng = np.random.default_rng(seed)
        pos_epochs: List[int] = []
        for crisis in crises:
            if crisis.detected_epoch is None:
                continue
            pos_epochs.extend(self._positive_epochs(crisis).tolist())
        if not pos_epochs:
            raise ValueError("no positive epochs available")

        normal_pool = self._normal_pool()
        neg_epochs = rng.choice(
            normal_pool, size=min(n_negative, len(normal_pool)),
            replace=False,
        )

        X = np.vstack(
            [
                self._epoch_vectors(np.asarray(pos_epochs)),
                self._epoch_vectors(neg_epochs),
            ]
        )
        y = np.concatenate(
            [np.ones(len(pos_epochs)), np.zeros(len(neg_epochs))]
        )
        self.model = L1LogisticRegression(lam=self.lam, max_iter=800).fit(
            X, y
        )
        return self

    def score_epochs(self, epochs: np.ndarray) -> np.ndarray:
        """P(crisis within the lead horizon) for the given epochs."""
        if self.model is None:
            raise RuntimeError("forecaster is not fitted")
        return self.model.predict_proba(self._epoch_vectors(epochs))

    def calibrate_threshold(
        self,
        false_alarm_budget: float = 0.02,
        n_normal: int = 2000,
        seed: int = 2,
    ) -> float:
        """Alarm threshold at a false-alarm budget, from normal epochs.

        The threshold is the (1 - budget) quantile of scores on crisis-free
        epochs — i.e. alarms fire on at most ``false_alarm_budget`` of
        normal epochs.  If no training crisis's lead window would alarm at
        that level, the forecaster honestly has no usable signal and the
        threshold stays strict (zero recall is reported rather than bought
        with wholesale false alarms).
        """
        rng = np.random.default_rng(seed)
        pool = self._normal_pool()
        sample = rng.choice(pool, size=min(n_normal, len(pool)),
                            replace=False)
        normal_scores = self.score_epochs(sample)
        return float(np.quantile(normal_scores, 1.0 - false_alarm_budget))

    def _exclusion_mask(self) -> np.ndarray:
        exclusion = np.zeros(self.trace.n_epochs, dtype=bool)
        exclusion |= self.trace.anomalous
        for crisis in self.trace.crises:
            lo = max(crisis.instance.start_epoch
                     - self.lead_epochs - self.window_epochs - 2, 0)
            exclusion[lo : crisis.instance.end_epoch + 4] = True
        return exclusion

    def evaluate(
        self,
        crises: Sequence[CrisisRecord],
        threshold: float = 0.5,
        n_normal: int = 2000,
        seed: int = 1,
    ) -> OfflineForecastResult:
        """Recall on held-out crises and false alarms on normal epochs.

        Raises :class:`ValueError` when no test crisis carries a
        detection epoch — there is nothing to measure recall over, and a
        silent ``recall=nan`` historically masked empty test splits.
        """
        rng = np.random.default_rng(seed)
        hits = 0
        total = 0
        for crisis in crises:
            if crisis.detected_epoch is None:
                continue
            total += 1
            pos = self._positive_epochs(crisis)
            if pos.size and np.any(self.score_epochs(pos) > threshold):
                hits += 1
        if total == 0:
            raise ValueError(
                "no test crisis has a detection epoch (n_crises=0): "
                "recall is undefined on this split"
            )
        pool = self._normal_pool()
        sample = rng.choice(pool, size=min(n_normal, len(pool)),
                            replace=False)
        false_alarms = float(
            np.mean(self.score_epochs(sample) > threshold)
        )
        return OfflineForecastResult(
            recall=hits / total,
            false_alarm_rate=false_alarms,
            threshold=threshold,
            n_crises=total,
        )


__all__ = ["OfflineCrisisForecaster", "OfflineForecastResult"]
