"""Free-parameter sensitivity analyses (Figure 7, Sections 6.1-6.2).

* :func:`summary_window_sweep` — discriminative power (AUC) of fingerprints
  summarized over different windows [t0, t1] relative to crisis detection
  (Figure 7);
* :func:`metric_window_sweep` — identification accuracy across fingerprint
  sizes and threshold-window lengths (Section 6.1);
* :func:`threshold_percentile_sweep` and :func:`threshold_method_sweep` —
  discriminative power of hot/cold percentile choices and of the two
  rejected threshold-setting methods (Section 6.2).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.config import (
    FingerprintConfig,
    FingerprintingConfig,
    SelectionConfig,
    ThresholdConfig,
)
from repro.core.engine import fingerprint_from_window
from repro.core.similarity import pair_arrays
from repro.core.thresholds import (
    QuantileThresholds,
    kpi_correlation_thresholds,
    percentile_thresholds,
    timeseries_thresholds,
)
from repro.datacenter.trace import CrisisRecord, DatacenterTrace
from repro.evaluation.experiments import OnlineIdentificationExperiment
from repro.methods.fingerprints import FingerprintMethod
from repro.ml.roc import roc_curve


def _auc_for_thresholds(
    trace: DatacenterTrace,
    crises: Sequence[CrisisRecord],
    thresholds: QuantileThresholds,
    relevant: np.ndarray,
    window: Tuple[int, int] = (-2, 4),
) -> float:
    """Discrimination AUC of crisis fingerprints under given thresholds."""
    t0, t1 = window
    if t1 < t0:
        raise ValueError("window must satisfy t0 <= t1")
    vectors = []
    for crisis in crises:
        det = crisis.detected_epoch
        lo = max(det + t0, 0)
        hi = min(det + t1, trace.n_epochs - 1)
        vectors.append(fingerprint_from_window(
            trace.quantiles[lo : hi + 1], thresholds, relevant
        ))
    stacked = np.stack(vectors)
    diff = stacked[:, None, :] - stacked[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    pair_d, is_same = pair_arrays(dist, [c.label for c in crises])
    return roc_curve(pair_d, is_same).auc


def summary_window_sweep(
    trace: DatacenterTrace,
    crises: Sequence[CrisisRecord],
    start_offsets: Sequence[int] = (-4, -3, -2, -1, 0),
    end_offsets: Sequence[int] = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
    method: FingerprintMethod = None,
) -> Dict[Tuple[int, int], float]:
    """Figure 7: AUC of fingerprints summarized over windows [t0, t1].

    Offsets are epochs relative to detection (the paper's x-axis is
    minutes; one epoch is 15 minutes).  Returns ``{(t0, t1): auc}`` for all
    valid combinations.
    """
    if method is None:
        method = FingerprintMethod()
        method.fit(trace, list(crises))
    out: Dict[Tuple[int, int], float] = {}
    for t0 in start_offsets:
        for t1 in end_offsets:
            if t1 <= t0:
                continue
            out[(t0, t1)] = _auc_for_thresholds(
                trace, crises, method.thresholds, method.relevant,
                window=(t0, t1),
            )
    return out


def threshold_percentile_sweep(
    trace: DatacenterTrace,
    crises: Sequence[CrisisRecord],
    pairs: Sequence[Tuple[float, float]] = (
        (1.0, 99.0),
        (2.0, 98.0),
        (5.0, 95.0),
        (10.0, 90.0),
    ),
) -> Dict[Tuple[float, float], float]:
    """Section 6.2: AUC under different hot/cold percentile choices."""
    method = FingerprintMethod()
    method.fit(trace, list(crises))
    history = trace.quantiles[trace.crisis_free_mask()]
    out: Dict[Tuple[float, float], float] = {}
    for cold, hot in pairs:
        thresholds = percentile_thresholds(history, cold, hot)
        out[(cold, hot)] = _auc_for_thresholds(
            trace, crises, thresholds, method.relevant
        )
    return out


def threshold_method_sweep(
    trace: DatacenterTrace, crises: Sequence[CrisisRecord]
) -> Dict[str, float]:
    """Section 6.2: percentile method vs the two rejected alternatives."""
    method = FingerprintMethod()
    method.fit(trace, list(crises))
    history = trace.quantiles[trace.crisis_free_mask()]
    candidates = {
        "percentile 2/98": percentile_thresholds(history),
        "time-series +/-3 sigma": timeseries_thresholds(history),
        "KPI-correlation fit": kpi_correlation_thresholds(
            trace.quantiles, trace.anomalous
        ),
    }
    return {
        name: _auc_for_thresholds(trace, crises, thr, method.relevant)
        for name, thr in candidates.items()
    }


def metric_window_sweep(
    trace: DatacenterTrace,
    n_metrics_grid: Sequence[int] = (5, 10, 20, 30),
    window_days_grid: Sequence[int] = (7, 30, 120, 240),
    mode: str = "online",
    bootstrap: int = 10,
    n_runs: int = 11,
    seed: int = 0,
) -> List[Dict[str, float]]:
    """Section 6.1: identification accuracy vs fingerprint size and window.

    Returns one record per grid point with the operating-point accuracies.
    """
    records: List[Dict[str, float]] = []
    for n_rel in n_metrics_grid:
        for days in window_days_grid:
            config = FingerprintingConfig(
                selection=SelectionConfig(n_relevant=n_rel),
                thresholds=ThresholdConfig(window_days=days),
                fingerprint=FingerprintConfig(),
            )
            exp = OnlineIdentificationExperiment(trace, config)
            curves = exp.run(
                mode=mode, bootstrap=bootstrap, n_runs=n_runs, seed=seed
            )
            op = curves.operating_point()
            records.append(
                {
                    "n_metrics": float(n_rel),
                    "window_days": float(days),
                    **op,
                }
            )
    return records


__all__ = [
    "summary_window_sweep",
    "threshold_percentile_sweep",
    "threshold_method_sweep",
    "metric_window_sweep",
]
