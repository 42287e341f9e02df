"""Offline fingerprint methods: the paper's, and the all-metrics ablation.

In the offline setting (Section 5.1) every parameter is estimated with
perfect future knowledge: hot/cold thresholds over the whole trace's
crisis-free epochs, relevant metrics selected from all labeled crises
(top-10 per crisis, then the 15 most frequent).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.config import FingerprintingConfig, SelectionConfig
from repro.core.engine import fingerprint_from_window
from repro.core.selection import (
    select_crisis_metrics,
    select_relevant_metrics,
)
from repro.core.similarity import l2_distance
from repro.core.thresholds import QuantileThresholds, percentile_thresholds
from repro.datacenter.trace import CrisisRecord, DatacenterTrace
from repro.methods.base import OfflineMethod


class FingerprintMethod(OfflineMethod):
    """The paper's method, offline variant (Section 5.1).

    Parameters default to the paper: 15 relevant metrics offline, 2/98
    hot/cold percentiles, summary window −2 … +4 epochs.
    """

    name = "fingerprints"

    def __init__(
        self,
        config: Optional[FingerprintingConfig] = None,
        exclude_kpis_from_selection: bool = False,
    ):
        if config is None:
            config = FingerprintingConfig(
                selection=SelectionConfig(n_relevant=15)
            )
        self.config = config
        self.exclude_kpis = exclude_kpis_from_selection
        self.trace: Optional[DatacenterTrace] = None
        self.thresholds: Optional[QuantileThresholds] = None
        self.relevant: Optional[np.ndarray] = None

    def _relevant_metrics(
        self, trace: DatacenterTrace, crises: List[CrisisRecord]
    ) -> np.ndarray:
        exclude = trace.kpi_metric_indices if self.exclude_kpis else ()
        selections = [
            select_crisis_metrics(
                c.raw.values,
                c.raw.violations,
                top_k=self.config.selection.per_crisis_top_k,
                exclude=exclude,
            )
            for c in crises
        ]
        return select_relevant_metrics(
            selections,
            self.config.selection.n_relevant,
            pool=max(len(selections), self.config.selection.crisis_pool),
        )

    def fit(self, trace: DatacenterTrace, crises: List[CrisisRecord]) -> None:
        self.trace = trace
        cfg = self.config.thresholds
        # The paper's offline thresholds use "the four months of data
        # surrounding the 19 crises", not the whole multi-season trace:
        # thresholds must reflect the operating regime the crises occur in,
        # or slow workload drift pollutes the discretization.
        detections = [c.detected_epoch for c in crises if c.detected]
        margin = 15 * trace.epochs_per_day
        lo = max(min(detections) - margin, 0) if detections else 0
        hi = min(max(detections) + margin, trace.n_epochs) if detections \
            else trace.n_epochs
        mask = trace.crisis_free_mask()
        mask[:lo] = False
        mask[hi:] = False
        history = trace.quantiles[mask]
        self.thresholds = percentile_thresholds(
            history, cfg.cold_percentile, cfg.hot_percentile
        )
        self.relevant = self._relevant_metrics(trace, crises)

    def vector(
        self, crisis: CrisisRecord, n_epochs: Optional[int] = None
    ) -> np.ndarray:
        """Crisis fingerprint, optionally truncated to the first n epochs."""
        if self.trace is None or self.thresholds is None:
            raise RuntimeError("method is not fitted")
        det = crisis.detected_epoch
        if det is None:
            raise ValueError("crisis was never detected")
        span = self.config.fingerprint.window(
            det, self.trace.n_epochs, n_epochs
        )
        return fingerprint_from_window(
            self.trace.quantiles[span], self.thresholds, self.relevant
        )

    def pair_distance(
        self,
        new: CrisisRecord,
        known: CrisisRecord,
        n_epochs: Optional[int] = None,
    ) -> float:
        return l2_distance(
            self.vector(new, n_epochs), self.vector(known, n_epochs)
        )


class AllMetricsFingerprintMethod(FingerprintMethod):
    """Fingerprints built from *all* collected metrics (no selection).

    Quantifies the noise irrelevant metrics inject into identification —
    the paper's "fingerprints (all metrics)" baseline achieves only ~50%
    accuracy against 97.5% with selection.
    """

    name = "fingerprints (all metrics)"

    def _relevant_metrics(
        self, trace: DatacenterTrace, crises: List[CrisisRecord]
    ) -> np.ndarray:
        return np.arange(trace.n_metrics)


__all__ = ["FingerprintMethod", "AllMetricsFingerprintMethod"]
