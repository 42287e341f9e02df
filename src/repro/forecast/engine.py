"""Forecast engine: predictive early warning riding a streaming monitor.

:class:`ForecastEngine` attaches to a
:class:`~repro.core.streaming.StreamingCrisisMonitor` (opt-in via
:meth:`~repro.core.streaming.StreamingCrisisMonitor.attach_forecast`) and
observes every ingested epoch — quantile summary, violation statistic,
emitted events, quality verdict.  Each trusted epoch is folded into the
:class:`~repro.forecast.features.OnlineFeatureExtractor`; when a trained
:class:`~repro.forecast.detector.TwoStageDetector` is installed, the
epoch is scored and, above the calibrated alarm threshold, a
:class:`ForecastAlarm` is emitted naming the most likely incident-catalog
entry — N epochs *before* the 10%-violation rule fires.

Alarm hygiene: alarms are suppressed while a crisis is already live (the
SLA detector has spoken; forecasting it is noise), on untrusted epochs
(quarantine semantics), and for ``cooldown_epochs`` after an alarm fires
(one page per impending crisis).

Engine state is embedded in monitor checkpoints by
:mod:`repro.core.checkpoint` and restored bit-identically; standalone
:func:`save_forecast` / :func:`load_forecast` serve the CLI and the
``serve --forecast-model`` path.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config import ForecastConfig
from repro.core.atomicio import atomic_write_npz, pack_header, read_npz
from repro.core.summary import summary_vectors
from repro.forecast.detector import TwoStageDetector, normalize_fingerprint
from repro.forecast.features import OnlineFeatureExtractor

#: Format version of standalone forecast state archives.
FORECAST_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ForecastAlarm:
    """One early-warning emission: a crisis looks imminent."""

    epoch: int
    score: float  # stage-1 P(crisis within horizon)
    label: str  # stage-2 catalog match, or the don't-know label
    distance: Optional[float]  # stage-2 fingerprint distance

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "score": self.score,
            "label": self.label,
            "distance": self.distance,
        }


class ForecastEngine:
    """Online two-stage early warning over a monitor's epoch stream."""

    def __init__(
        self,
        config: ForecastConfig = ForecastConfig(),
        detector: Optional[TwoStageDetector] = None,
    ):
        self.config = config
        self.detector = detector
        self.extractor: Optional[OnlineFeatureExtractor] = None
        self._monitor = None
        #: Last ``pre_epochs + 1`` summary rows: the stage-2 partial
        #: fingerprint at alarm time (mirrors the monitor's pre-buffer).
        self._summary_buffer: List[np.ndarray] = []
        self._pre_epochs = 2
        self._cooldown = 0
        self._alarms: List[ForecastAlarm] = []
        self.alarms_total = 0
        self.suppressed_live = 0
        self.epochs_observed = 0
        self.epochs_scored = 0
        self.last_score: Optional[float] = None
        self.last_features: Optional[np.ndarray] = None

    # -- attachment --------------------------------------------------------

    def attach(self, monitor) -> None:
        """Bind to a monitor (normally via ``attach_forecast``)."""
        n_cells = int(monitor.relevant.size) * monitor.config.quantiles.count
        if self.extractor is None:
            self.extractor = OnlineFeatureExtractor(
                n_cells,
                slope_window=self.config.slope_window,
                churn_window=self.config.churn_window,
            )
        elif self.extractor.n_cells != n_cells:
            raise ValueError(
                f"forecast state tracks {self.extractor.n_cells} fingerprint "
                f"cells but the monitor fingerprints {n_cells}"
            )
        self._pre_epochs = monitor.config.fingerprint.pre_epochs
        self._monitor = monitor
        monitor._forecast = self

    @property
    def monitor(self):
        return self._monitor

    @property
    def is_fitted(self) -> bool:
        return self.detector is not None and self.detector.is_fitted

    @property
    def alarms(self) -> List[ForecastAlarm]:
        """The retained alarm log, oldest first."""
        return list(self._alarms)

    # -- monitor hook ------------------------------------------------------

    def observe_epoch(
        self,
        epoch: int,
        epoch_quantiles: np.ndarray,
        violation_fraction: Optional[float],
        events,
        untrusted: bool,
    ) -> Optional[ForecastAlarm]:
        """Consume one ingested epoch (monitor hook); maybe alarm."""
        from repro.core.streaming import IdentificationUpdate
        from repro.core.identification import UNKNOWN

        self.epochs_observed += 1
        self.last_features = None
        monitor = self._monitor
        if monitor is None or monitor.thresholds is None:
            return None

        dont_know = identified = 0
        for event in events:
            if isinstance(event, IdentificationUpdate):
                if event.label == UNKNOWN:
                    dont_know += 1
                else:
                    identified += 1
        violation = 0.0 if violation_fraction is None else float(
            violation_fraction
        )
        rel = monitor.relevant
        if untrusted:
            feats = self.extractor.observe(
                None, None, None, violation,
                dont_know=dont_know, identified=identified, untrusted=True,
            )
        else:
            thresholds = monitor.thresholds
            quantiles = np.asarray(epoch_quantiles, dtype=float)
            summary = summary_vectors(quantiles, thresholds)[rel].reshape(-1)
            raw = quantiles[rel].reshape(-1)
            scale = (thresholds.hot - thresholds.cold)[rel].reshape(-1)
            feats = self.extractor.observe(
                raw, summary, scale, violation,
                dont_know=dont_know, identified=identified, untrusted=False,
            )
            self._summary_buffer.append(summary.astype(float))
            if len(self._summary_buffer) > self._pre_epochs + 1:
                self._summary_buffer.pop(0)
        self.last_features = feats
        if feats is None or not self.is_fitted:
            return None

        self.epochs_scored += 1
        score = float(self.detector.score(feats)[0])
        self.last_score = score
        if self._cooldown > 0:
            self._cooldown -= 1
            return None
        if score < self.detector.alarm_threshold:
            return None
        if monitor._live is not None:
            # The SLA detector already fired; forecasting now is noise.
            self.suppressed_live += 1
            return None
        partial = normalize_fingerprint(
            np.mean(np.stack(self._summary_buffer), axis=0)
        )
        if not partial.any():
            # No summary cell deviates yet: the partial fingerprint has
            # no direction to match, so stage 2 honestly says don't-know.
            label, distance = UNKNOWN, None
        else:
            label, distance = self.detector.identify(partial)
        alarm = ForecastAlarm(
            epoch=int(epoch), score=score, label=label, distance=distance
        )
        self._alarms.append(alarm)
        if len(self._alarms) > self.config.alarm_retain:
            self._alarms.pop(0)
        self.alarms_total += 1
        self._cooldown = self.config.cooldown_epochs
        return alarm

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "attached": self._monitor is not None,
            "fitted": self.is_fitted,
            "epochs_observed": self.epochs_observed,
            "epochs_scored": self.epochs_scored,
            "alarms_total": self.alarms_total,
            "suppressed_live": self.suppressed_live,
            "cooldown": self._cooldown,
            "last_score": self.last_score,
            "horizon_epochs": self.config.horizon_epochs,
            "false_alarm_budget": self.config.false_alarm_budget,
        }
        if self.detector is not None:
            out["alarm_threshold"] = self.detector.alarm_threshold
            out["stage1_lam"] = self.detector.lam
            out["catalog_size"] = self.detector.catalog_size
            out["match_threshold"] = self.detector.match_threshold
        if self.extractor is not None:
            out["feature_dim"] = self.extractor.dim
        return out

    def forecasts(self, limit: Optional[int] = None) -> List[dict]:
        """Recent alarms as wire-safe dicts, oldest first."""
        alarms = self._alarms if limit is None else self._alarms[-limit:]
        return [alarm.to_dict() for alarm in alarms]

    # -- snapshot ----------------------------------------------------------

    def snapshot(self, prefix: str = "") -> Tuple[dict, Dict[str, np.ndarray]]:
        """Engine state as ``(header, arrays)`` for embedding.

        ``prefix`` namespaces the array keys so the snapshot can ride
        inside a monitor checkpoint archive without collisions.
        """
        if self.extractor is None:
            raise ValueError("engine is not attached")
        fx_header, fx_arrays = self.extractor.snapshot(prefix=f"{prefix}fx_")
        header = {
            "config": asdict(self.config),
            "extractor": fx_header,
            "pre_epochs": self._pre_epochs,
            "cooldown": self._cooldown,
            "alarms_total": self.alarms_total,
            "suppressed_live": self.suppressed_live,
            "epochs_observed": self.epochs_observed,
            "epochs_scored": self.epochs_scored,
            "last_score": self.last_score,
            "alarm_labels": [alarm.label for alarm in self._alarms],
            "n_summary_buffer": len(self._summary_buffer),
            "has_detector": self.detector is not None,
        }
        arrays = dict(fx_arrays)
        if self._summary_buffer:
            arrays[f"{prefix}summary_buffer"] = np.stack(self._summary_buffer)
        if self._alarms:
            arrays[f"{prefix}alarm_epochs"] = np.array(
                [alarm.epoch for alarm in self._alarms], dtype=np.int64
            )
            arrays[f"{prefix}alarm_scores"] = np.array(
                [alarm.score for alarm in self._alarms], dtype=float
            )
            # Distances are finite when present; NaN encodes "no catalog".
            arrays[f"{prefix}alarm_distances"] = np.array(
                [
                    np.nan if alarm.distance is None else alarm.distance
                    for alarm in self._alarms
                ],
                dtype=float,
            )
        if self.detector is not None:
            det_header, det_arrays = self.detector.snapshot(
                prefix=f"{prefix}det_"
            )
            header["detector"] = det_header
            arrays.update(det_arrays)
        return header, arrays

    @classmethod
    def from_snapshot(
        cls, header: dict, arrays, prefix: str = ""
    ) -> "ForecastEngine":
        config = ForecastConfig(**header["config"])
        detector = None
        if header.get("has_detector"):
            detector = TwoStageDetector.from_snapshot(
                header["detector"], arrays, prefix=f"{prefix}det_"
            )
        engine = cls(config, detector=detector)
        engine.extractor = OnlineFeatureExtractor.from_snapshot(
            header["extractor"], arrays, prefix=f"{prefix}fx_"
        )
        engine._pre_epochs = int(header["pre_epochs"])
        engine._cooldown = int(header["cooldown"])
        engine.alarms_total = int(header["alarms_total"])
        engine.suppressed_live = int(header["suppressed_live"])
        engine.epochs_observed = int(header["epochs_observed"])
        engine.epochs_scored = int(header["epochs_scored"])
        score = header.get("last_score")
        engine.last_score = None if score is None else float(score)
        if header.get("n_summary_buffer"):
            engine._summary_buffer = [
                np.array(row, dtype=float)
                for row in arrays[f"{prefix}summary_buffer"]
            ]
        labels = header.get("alarm_labels", [])
        if labels:
            epochs = arrays[f"{prefix}alarm_epochs"]
            scores = arrays[f"{prefix}alarm_scores"]
            distances = arrays[f"{prefix}alarm_distances"]
            engine._alarms = [
                ForecastAlarm(
                    epoch=int(epochs[i]),
                    score=float(scores[i]),
                    label=str(labels[i]),
                    distance=(
                        None if np.isnan(distances[i])
                        else float(distances[i])
                    ),
                )
                for i in range(len(labels))
            ]
        return engine


# ---------------------------------------------------------------------------
# Standalone persistence (CLI, serving model distribution)
# ---------------------------------------------------------------------------


def save_forecast(engine: ForecastEngine, path) -> None:
    """Persist an engine's forecast state to a standalone archive."""
    header, arrays = engine.snapshot()
    header = {
        "format_version": FORECAST_FORMAT_VERSION,
        "kind": "forecast",
        **header,
    }
    arrays = dict(arrays)
    arrays["header"] = pack_header(header)
    atomic_write_npz(path, arrays)


def load_forecast(path) -> ForecastEngine:
    """Restore an engine saved by :func:`save_forecast` (unattached).

    A damaged or foreign archive raises a
    :class:`~repro.core.atomicio.CheckpointError`.
    """
    with read_npz(path, FORECAST_FORMAT_VERSION, "forecast") as (
        header, data
    ):
        return ForecastEngine.from_snapshot(header, data)


__all__ = [
    "FORECAST_FORMAT_VERSION",
    "ForecastAlarm",
    "ForecastEngine",
    "load_forecast",
    "save_forecast",
]
