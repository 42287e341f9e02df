"""End-to-end online fingerprinting engine.

:class:`FingerprintPipeline` is the deployable form of the method: it sits
on a trace (live or recorded), maintains the three parameter sets of
Section 4.4 — relevant metrics, hot/cold quantile thresholds, and the
identification threshold — and processes crises as they are detected:

1. ``observe(crisis)`` runs per-crisis feature selection (the crisis only
   needs to be *detected*, not diagnosed — Section 3.4);
2. ``refresh(epoch)`` recomputes thresholds from the trailing crisis-free
   window and the relevant-metric set from the trailing crisis pool, and
   re-fingerprints all known crises (the bookkeeping of Section 6.3);
3. ``identify(crisis)`` emits one label (or unknown) per epoch for the
   five-epoch identification window;
4. ``confirm(crisis, label)`` stores the operator's diagnosis so future
   occurrences can be recognized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.config import FingerprintingConfig
from repro.core.engine import (
    fingerprint_from_summaries,
    fingerprint_from_window,
    threshold_series_for,
)
from repro.core.identification import (
    IdentificationResult,
    estimate_threshold_online,
)
from repro.core.selection import (
    select_crisis_metrics,
    select_relevant_metrics,
)
from repro.core.streaming import identify_slot
from repro.core.summary import summary_vectors
from repro.core.thresholds import QuantileThresholds
from repro.datacenter.trace import CrisisRecord, DatacenterTrace


@dataclass
class KnownCrisis:
    """A past crisis kept in the identification library.

    Stores the *raw* quantile values of the fingerprint window (so the
    fingerprint can be recomputed whenever thresholds or relevant metrics
    change — Section 6.3) and, for the stale-threshold ablation of Figure 8,
    the summary discretized with the thresholds in force when the crisis
    occurred.
    """

    crisis_id: int
    label: Optional[str]
    detection_epoch: int
    quantile_window: np.ndarray  # (w, n_metrics, n_quantiles) raw values
    stale_summary: np.ndarray  # (w, n_metrics, n_quantiles) in {-1,0,1}
    fingerprint: Optional[np.ndarray] = None  # under current parameters


@dataclass
class CrisisIdentification:
    """The five-epoch identification outcome for one crisis."""

    crisis_id: int
    results: List[IdentificationResult] = field(default_factory=list)

    @property
    def sequence(self) -> List[str]:
        return [r.label for r in self.results]


class FingerprintPipeline:
    """Online fingerprinting over a :class:`DatacenterTrace`.

    Parameters
    ----------
    trace:
        The telemetry source.
    config:
        Method parameters (paper defaults).
    recompute_past_fingerprints:
        When False, known-crisis fingerprints keep the hot/cold
        discretization computed when each crisis occurred (Figure 8's
        ablation); relevant-metric columns still follow the current set so
        distances stay comparable.
    exclude_kpis_from_selection:
        Drop the KPI metrics themselves from feature selection (they define
        the label, so they are trivially predictive of it).
    """

    def __init__(
        self,
        trace: DatacenterTrace,
        config: FingerprintingConfig = FingerprintingConfig(),
        recompute_past_fingerprints: bool = True,
        exclude_kpis_from_selection: bool = False,
    ):
        self.trace = trace
        self.config = config
        self.recompute_past_fingerprints = recompute_past_fingerprints
        self._selection_exclude = (
            tuple(trace.kpi_metric_indices)
            if exclude_kpis_from_selection
            else ()
        )
        self._selections: List[np.ndarray] = []
        self.known: List[KnownCrisis] = []
        self.thresholds: Optional[QuantileThresholds] = None
        self.relevant: Optional[np.ndarray] = None
        self.identification_threshold: Optional[float] = None

    # ------------------------------------------------------------------
    # Parameter maintenance
    # ------------------------------------------------------------------

    def update_thresholds(self, as_of_epoch: int) -> QuantileThresholds:
        """Hot/cold thresholds from the trailing crisis-free window.

        Served by the trace's shared incremental
        :class:`~repro.core.engine.ThresholdSeries` — identical values to
        a full-window recompute, without rescanning W epochs per refresh.
        """
        cfg = self.config.thresholds
        window_epochs = cfg.window_days * self.trace.epochs_per_day
        series = threshold_series_for(
            self.trace, window_epochs,
            cfg.cold_percentile, cfg.hot_percentile,
        )
        self.thresholds = series.at(as_of_epoch)
        return self.thresholds

    def observe(self, crisis: CrisisRecord) -> np.ndarray:
        """Run per-crisis feature selection (step 1 of Section 3.4)."""
        if crisis.raw is None:
            raise ValueError(f"crisis {crisis.index} has no raw window")
        selection = select_crisis_metrics(
            crisis.raw.values,
            crisis.raw.violations,
            top_k=self.config.selection.per_crisis_top_k,
            exclude=self._selection_exclude,
        )
        self._selections.append(selection)
        return selection

    def update_relevant_metrics(self) -> np.ndarray:
        """Most frequent metrics over the trailing crisis pool (step 2)."""
        cfg = self.config.selection
        self.relevant = select_relevant_metrics(
            self._selections, cfg.n_relevant, pool=cfg.crisis_pool
        )
        return self.relevant

    def refresh(self, as_of_epoch: int) -> None:
        """Bring thresholds, relevant metrics, and the library up to date."""
        self.update_thresholds(as_of_epoch)
        if self._selections:
            self.update_relevant_metrics()
        self._refingerprint_known()

    def _require_ready(self) -> None:
        if self.thresholds is None or self.relevant is None:
            raise RuntimeError(
                "pipeline not ready: call observe()/refresh() first"
            )

    def _fingerprint_of(
        self, known: KnownCrisis, n_window_epochs: Optional[int] = None
    ) -> np.ndarray:
        """(Re)compute a library fingerprint under current parameters.

        ``n_window_epochs`` truncates the summary window (counted from its
        first epoch); online identification at epoch k compares the new
        crisis's partial fingerprint against library fingerprints averaged
        over the *same* partial range, so early comparisons are not biased
        toward low-magnitude fingerprints.
        """
        self._require_ready()
        if self.recompute_past_fingerprints:
            return fingerprint_from_window(
                known.quantile_window, self.thresholds, self.relevant,
                n_window_epochs,
            )
        return fingerprint_from_summaries(
            known.stale_summary, self.relevant, n_window_epochs
        )

    def _refingerprint_known(self) -> None:
        if self.thresholds is None or self.relevant is None:
            return
        for known in self.known:
            known.fingerprint = self._fingerprint_of(known)

    def update_identification_threshold(self) -> Optional[float]:
        """Online threshold estimate from the current library (Section 5.3)."""
        usable = [k for k in self.known if k.label is not None]
        if len(usable) < 2:
            return self.identification_threshold
        self.identification_threshold = estimate_threshold_online(
            [k.fingerprint for k in usable],
            [k.label for k in usable],
            self.config.identification.alpha,
        )
        return self.identification_threshold

    def set_identification_threshold(self, value: float) -> None:
        """Fix the threshold externally (offline / quasi-online settings)."""
        if value < 0:
            raise ValueError("threshold must be non-negative")
        self.identification_threshold = value

    # ------------------------------------------------------------------
    # Crisis handling
    # ------------------------------------------------------------------

    def _crisis_window(self, detection_epoch: int) -> np.ndarray:
        span = self.config.fingerprint.window(
            detection_epoch, self.trace.n_epochs
        )
        return self.trace.quantiles[span]

    def identify(self, crisis: CrisisRecord) -> CrisisIdentification:
        """Run the five-epoch identification protocol for one crisis.

        At slot k the new crisis and every library crisis are fingerprinted
        over the first ``pre_epochs + k + 1`` rows of their windows, and the
        identification threshold is re-estimated from the library at that
        truncation (:func:`~repro.core.streaming.identify_slot`) —
        partial-window distances live on a smaller scale than full-window
        ones, so a single threshold would over-match in the first epochs.
        The threshold set on the pipeline applies only while the library
        yields no estimate.
        """
        self._require_ready()
        if self.identification_threshold is None:
            raise RuntimeError("identification threshold not set")
        if crisis.detected_epoch is None:
            raise ValueError(f"crisis {crisis.index} was never detected")
        window = self._crisis_window(crisis.detected_epoch)
        library = [(kn, kn.label) for kn in self.known if kn.label is not None]
        outcome = CrisisIdentification(crisis_id=crisis.index)
        for k in range(self.config.identification.n_epochs):
            depth = self.config.fingerprint.pre_epochs + k + 1
            outcome.results.append(
                identify_slot(
                    fingerprint_from_window(
                        window, self.thresholds, self.relevant, depth
                    ),
                    library,
                    self._fingerprint_of,
                    depth,
                    self.config.identification.alpha,
                    threshold=self.identification_threshold,
                )
            )
        return outcome

    def confirm(
        self, crisis: CrisisRecord, label: Optional[str] = None
    ) -> KnownCrisis:
        """Store a crisis in the library (with the operator's diagnosis)."""
        self._require_ready()
        if crisis.detected_epoch is None:
            raise ValueError(f"crisis {crisis.index} was never detected")
        window = self._crisis_window(crisis.detected_epoch)
        known = KnownCrisis(
            crisis_id=crisis.index,
            label=label if label is not None else crisis.label,
            detection_epoch=crisis.detected_epoch,
            quantile_window=np.array(window, dtype=float),
            stale_summary=summary_vectors(window, self.thresholds),
        )
        known.fingerprint = self._fingerprint_of(known)
        self.known.append(known)
        return known


__all__ = ["CrisisIdentification", "FingerprintPipeline", "KnownCrisis"]
