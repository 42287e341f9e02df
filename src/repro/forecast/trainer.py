"""Offline training for the online forecast pipeline.

Training is the one place the forecast subsystem may touch a recorded
trace: the trace is *replayed through a live monitor* with a
collect-mode :class:`~repro.forecast.engine.ForecastEngine` attached, so
every feature row the model sees is exactly what the online extractor
would have produced at that epoch — no offline-only signals leak in.

Epoch labels follow the lead-horizon semantics: epoch ``t`` is positive
when the monitor's own SLA detector fires at some epoch ``d`` with
``1 <= d - t <= horizon_epochs``.  Negatives are sampled from epochs
well clear of any crisis (the widened exclusion window of the Section 7
demo).  The stage-1 penalty is chosen by cross-validated held-out
log-loss, the alarm threshold from the training ROC at the false-alarm
budget, and the stage-2 catalog is built from the labeled crises of the
training period fingerprinted at the monitor's end-of-training
thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.config import (
    FingerprintingConfig,
    ForecastConfig,
    SelectionConfig,
    ThresholdConfig,
)
from repro.core.engine import fingerprint_from_window
from repro.core.streaming import (
    CrisisDetected,
    CrisisEnded,
    StreamingCrisisMonitor,
)
from repro.forecast.detector import TwoStageDetector, normalize_fingerprint
from repro.forecast.engine import ForecastEngine
from repro.forecast.features import OnlineFeatureExtractor

#: Method parameters for forecast replays on simulator traces: a short
#: threshold window keeps the rolling tracker cheap over year-long
#: traces (same trade-off as the discovery evaluation harness).
FORECAST_REPLAY_CONFIG = FingerprintingConfig(
    selection=SelectionConfig(n_relevant=10),
    thresholds=ThresholdConfig(window_days=30),
)

#: Epochs after a crisis end still excluded from the negative pool.
POST_CRISIS_MARGIN = 4


def make_monitor(
    trace,
    relevant: np.ndarray,
    config: FingerprintingConfig = FORECAST_REPLAY_CONFIG,
) -> StreamingCrisisMonitor:
    """A replay monitor with daily refresh after a week of history."""
    return StreamingCrisisMonitor(
        n_metrics=trace.n_metrics,
        relevant_metrics=relevant,
        config=config,
        threshold_refresh_epochs=trace.epochs_per_day,
        min_history_epochs=7 * trace.epochs_per_day,
    )


@dataclass
class ReplayResult:
    """One streamed pass over a trace with feature collection."""

    features: np.ndarray  # (n_epochs, dim); NaN rows where unavailable
    valid: np.ndarray  # (n_epochs,) feature row emitted this epoch
    detections: List[int]  # epochs where the monitor's SLA rule fired
    spans: List[Tuple[int, int]]  # (detection, end) epoch per crisis
    monitor: StreamingCrisisMonitor
    engine: ForecastEngine


def replay_collect(
    trace,
    relevant: np.ndarray,
    config: FingerprintingConfig = FORECAST_REPLAY_CONFIG,
    fcfg: ForecastConfig = ForecastConfig(),
    end_epoch: Optional[int] = None,
    engine: Optional[ForecastEngine] = None,
) -> ReplayResult:
    """Stream ``trace[:end_epoch]`` through a monitor + forecast engine."""
    n = trace.n_epochs if end_epoch is None else min(
        int(end_epoch), trace.n_epochs
    )
    monitor = make_monitor(trace, relevant, config)
    if engine is None:
        engine = ForecastEngine(fcfg)
    monitor.attach_forecast(engine)
    frac = trace.kpi_violation_fraction.max(axis=1)
    features = np.full((n, engine.extractor.dim), np.nan)
    valid = np.zeros(n, dtype=bool)
    detections: List[int] = []
    spans: List[Tuple[int, int]] = []
    open_detection: Optional[int] = None
    for epoch in range(n):
        events = monitor.ingest(trace.quantiles[epoch], float(frac[epoch]))
        for event in events:
            if isinstance(event, CrisisDetected):
                detections.append(epoch)
                open_detection = epoch
            elif isinstance(event, CrisisEnded):
                if open_detection is not None:
                    spans.append((open_detection, epoch))
                open_detection = None
        row = engine.last_features
        if row is not None:
            features[epoch] = row
            valid[epoch] = True
    if open_detection is not None:
        spans.append((open_detection, n))
    return ReplayResult(
        features=features,
        valid=valid,
        detections=detections,
        spans=spans,
        monitor=monitor,
        engine=engine,
    )


def lead_labels(
    n_epochs: int, detections: List[int], horizon_epochs: int
) -> np.ndarray:
    """Positive mask: a detection lands within the next ``horizon`` epochs."""
    y = np.zeros(n_epochs, dtype=bool)
    for det in detections:
        y[max(det - horizon_epochs, 0):det] = True
    return y


def exclusion_mask(
    n_epochs: int,
    spans: List[Tuple[int, int]],
    horizon_epochs: int,
    margin: int = POST_CRISIS_MARGIN,
) -> np.ndarray:
    """Epochs too close to a crisis to serve as negatives."""
    mask = np.zeros(n_epochs, dtype=bool)
    for det, end in spans:
        lo = max(det - horizon_epochs - 2, 0)
        mask[lo:min(end + margin, n_epochs)] = True
    return mask


@dataclass
class TrainingReport:
    """What the trainer saw and chose (for CLI output and benchmarks)."""

    n_positive: int
    n_negative: int
    feature_dim: int
    lam: float
    cv_table: List[dict] = field(default_factory=list)
    alarm_threshold: float = 0.0
    calibration_recall: float = 0.0
    calibration_fpr: float = 0.0
    catalog_size: int = 0
    match_threshold: Optional[float] = None
    train_epochs: int = 0
    n_detections: int = 0


def train_forecaster(
    trace,
    relevant: np.ndarray,
    config: FingerprintingConfig = FORECAST_REPLAY_CONFIG,
    fcfg: ForecastConfig = ForecastConfig(),
    train_epochs: Optional[int] = None,
    n_negative: int = 6000,
) -> Tuple[ForecastEngine, TrainingReport]:
    """Train a two-stage detector on the trace prefix; returns a fresh
    (unattached) engine carrying it plus a training report."""
    relevant = np.asarray(relevant, dtype=int)
    n = trace.n_epochs if train_epochs is None else min(
        int(train_epochs), trace.n_epochs
    )
    replay = replay_collect(
        trace, relevant, config=config, fcfg=fcfg, end_epoch=n
    )
    if replay.monitor.thresholds is None:
        raise ValueError(
            "training period too short: thresholds never activated"
        )
    y = lead_labels(n, replay.detections, fcfg.horizon_epochs)
    excluded = exclusion_mask(n, replay.spans, fcfg.horizon_epochs)
    pos_idx = np.flatnonzero(y & replay.valid)
    neg_pool = np.flatnonzero(~y & ~excluded & replay.valid)
    if pos_idx.size == 0:
        raise ValueError("no positive epochs available")
    if neg_pool.size == 0:
        raise ValueError("no crisis-free epochs available")
    rng = np.random.default_rng(fcfg.seed)
    neg_idx = np.sort(
        rng.choice(
            neg_pool, size=min(n_negative, neg_pool.size), replace=False
        )
    )
    X = np.vstack([replay.features[pos_idx], replay.features[neg_idx]])
    labels = np.concatenate(
        [np.ones(pos_idx.size), np.zeros(neg_idx.size)]
    )
    detector = TwoStageDetector(
        horizon_epochs=fcfg.horizon_epochs,
        false_alarm_budget=fcfg.false_alarm_budget,
    )
    detector.fit(X, labels, cv_folds=fcfg.cv_folds, seed=fcfg.seed)
    detector.calibrate(detector.score(X), labels)

    # Stage-2 catalog: labeled crises of the training period,
    # fingerprinted over their pre-detection window at the monitor's
    # end-of-training thresholds (the partial fingerprint an alarm sees).
    pre = config.fingerprint.pre_epochs
    thresholds = replay.monitor.thresholds
    vectors: List[np.ndarray] = []
    names: List[str] = []
    for crisis in trace.labeled_crises:
        det = crisis.detected_epoch
        if det is None or det >= n:
            continue
        # One catalog entry per alarm phase: an alarm at lead L queries
        # the mean summary of the pre+1 epochs ending at det-L, so the
        # catalog holds that window's *direction* for every lead in the
        # horizon plus the detection-time fingerprint itself.  Matching
        # directions (``normalize_fingerprint``) keeps ramp strength out
        # of the distance, and the per-phase entries give the don't-know
        # threshold estimator the real within-type spread.
        for lead in range(fcfg.horizon_epochs + 1):
            stop = det - lead
            window = trace.quantiles[max(stop - pre, 0):stop + 1]
            if window.shape[0] == 0:
                continue
            unit = normalize_fingerprint(
                fingerprint_from_window(window, thresholds, relevant)
            )
            if not unit.any():
                continue
            vectors.append(unit)
            names.append(crisis.label)
    if vectors:
        detector.set_catalog(
            np.stack(vectors), names, alpha=fcfg.match_alpha
        )

    engine = ForecastEngine(fcfg, detector=detector)
    engine.extractor = OnlineFeatureExtractor(
        n_cells=int(relevant.size) * config.quantiles.count,
        slope_window=fcfg.slope_window,
        churn_window=fcfg.churn_window,
    )
    report = TrainingReport(
        n_positive=int(pos_idx.size),
        n_negative=int(neg_idx.size),
        feature_dim=int(X.shape[1]),
        lam=float(detector.lam),
        cv_table=list(detector.cv_table),
        alarm_threshold=float(detector.alarm_threshold),
        calibration_recall=float(detector.calibration_recall),
        calibration_fpr=float(detector.calibration_fpr),
        catalog_size=detector.catalog_size,
        match_threshold=detector.match_threshold,
        train_epochs=n,
        n_detections=len(replay.detections),
    )
    return engine, report


__all__ = [
    "FORECAST_REPLAY_CONFIG",
    "POST_CRISIS_MARGIN",
    "ReplayResult",
    "TrainingReport",
    "exclusion_mask",
    "lead_labels",
    "make_monitor",
    "replay_collect",
    "train_forecaster",
]
