"""The paper's primary contribution: datacenter fingerprints.

Pipeline (Section 3):

1. :mod:`repro.core.thresholds` — hot/cold thresholds on metric quantiles
   from a crisis-free trailing window (plus the two alternative methods the
   appendix evaluates and rejects);
2. :mod:`repro.core.summary` — {-1, 0, +1} summary vectors per epoch;
3. :mod:`repro.core.selection` — relevant-metric selection with
   L1-regularized logistic regression;
4. :mod:`repro.core.fingerprint` — epoch and crisis fingerprints;
5. :mod:`repro.core.similarity` — L2 distances between crisis fingerprints;
6. :mod:`repro.core.identification` — identification thresholds (offline ROC
   and the online rules of Section 5.3), the five-epoch identification
   protocol, and stability scoring;
7. :mod:`repro.core.engine` — the shared epoch-state engine: incremental
   trailing-window thresholds (:class:`RollingThresholdTracker`), the
   fingerprint-recomputation kernel, and the live :class:`EpochStateEngine`
   every data plane consumes;
8. :mod:`repro.core.pipeline` — an operator-facing online engine that ties
   the steps together over a live trace.
"""

from repro.core.engine import (
    EpochStateEngine,
    RollingThresholdTracker,
    ThresholdSeries,
    fingerprint_from_summaries,
    fingerprint_from_window,
    threshold_series_for,
)
from repro.core.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    load_monitor,
    load_pipeline,
    save_monitor,
    save_pipeline,
)
from repro.core.fingerprint import CrisisFingerprint, crisis_fingerprint
from repro.core.identification import (
    IdentificationResult,
    Identifier,
    UNKNOWN,
    estimate_threshold_online,
    is_stable,
    sequence_label,
)
from repro.core.pipeline import FingerprintPipeline, KnownCrisis
from repro.core.selection import (
    select_crisis_metrics,
    select_relevant_metrics,
)
from repro.core.similarity import l2_distance, pairwise_distances
from repro.core.summary import summary_vectors
from repro.core.thresholds import (
    QuantileThresholds,
    kpi_correlation_thresholds,
    percentile_thresholds,
    timeseries_thresholds,
)

__all__ = [
    "EpochStateEngine",
    "RollingThresholdTracker",
    "ThresholdSeries",
    "fingerprint_from_summaries",
    "fingerprint_from_window",
    "threshold_series_for",
    "CHECKPOINT_FORMAT_VERSION",
    "load_monitor",
    "load_pipeline",
    "save_monitor",
    "save_pipeline",
    "CrisisFingerprint",
    "crisis_fingerprint",
    "IdentificationResult",
    "Identifier",
    "UNKNOWN",
    "estimate_threshold_online",
    "is_stable",
    "sequence_label",
    "FingerprintPipeline",
    "KnownCrisis",
    "select_crisis_metrics",
    "select_relevant_metrics",
    "l2_distance",
    "pairwise_distances",
    "summary_vectors",
    "QuantileThresholds",
    "kpi_correlation_thresholds",
    "percentile_thresholds",
    "timeseries_thresholds",
]
