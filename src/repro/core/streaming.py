"""Streaming crisis monitor: the method as a long-running service.

:class:`~repro.core.pipeline.FingerprintPipeline` replays a recorded
trace; this module runs the same logic over a *live* stream of epoch
summaries (e.g. from :class:`repro.telemetry.collector.EpochAggregator`).
Each ingested epoch can emit events:

* :class:`CrisisDetected` — the KPI-violation fraction crossed the SLA
  rule (10% of machines in the paper);
* :class:`IdentificationUpdate` — one entry of the five-epoch
  identification sequence for the crisis in progress;
* :class:`CrisisEnded` — the violation fraction dropped back to normal;
* :class:`EpochUntrusted` — the epoch failed the quality gate and was
  quarantined (see below).

Hot/cold thresholds are maintained over a trailing crisis-free window by
the engine's :class:`~repro.core.engine.RollingThresholdTracker`, whose
ring of the last ``window_epochs`` epochs is the monitor's only record of
past epochs (:attr:`StreamingCrisisMonitor.store`): memory and
checkpoints stay bounded by the window, not by uptime.  Past crises keep
their own raw quantile windows for re-fingerprinting.  Relevant metrics
come from offline analysis (feature selection needs per-machine data the
stream does not carry) and can be swapped at any time; the library
re-fingerprints automatically.

**Quality gating.**  Telemetry degrades exactly when crises happen, so
every epoch passes a trust gate before it can influence the method's
state: summaries are validated (:mod:`repro.telemetry.validation` — any
``error``-severity issue marks the epoch untrusted) and, when the caller
supplies an :class:`~repro.telemetry.collector.EpochQuality` record,
fleet coverage below ``reliability.coverage_floor`` or a failed quorum
does too.  An untrusted epoch is quarantined: it is stored flagged
anomalous (so it can never enter a threshold window — the Figure 8
stale-threshold result shows mildly stale thresholds are far cheaper than
poisoned ones), threshold refresh is frozen, it cannot start or end a
crisis, and if an identification is due the monitor emits the paper's
don't-know label rather than risk a misidentification, preserving the
``x*L*`` stability semantics of identification sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config import FingerprintingConfig, ReliabilityConfig
from repro.core.columnar import WindowBlock
from repro.core.engine import (
    EpochStateEngine,
    RollingThresholdTracker,
    fingerprint_from_window,
)
from repro.core.identification import (
    UNKNOWN,
    IdentificationResult,
    Identifier,
    estimate_threshold_online,
)
from repro.core.thresholds import QuantileThresholds
from repro.telemetry.collector import EpochQuality
from repro.telemetry.epochs import EpochClock
from repro.telemetry.validation import validate_epoch_summary


def identify_slot(
    vector: np.ndarray,
    library: Sequence[Tuple[Any, str]],
    fingerprint: Callable[[Any, int], np.ndarray],
    n_epochs: int,
    alpha: float,
    threshold: Optional[float] = None,
) -> IdentificationResult:
    """One slot of the five-epoch identification protocol (Section 4.3).

    ``vector`` is the new crisis's fingerprint over the first ``n_epochs``
    rows of its window (``pre_epochs + k + 1`` at slot k), and ``library``
    holds the diagnosed crises as ``(entry, label)``.  The slot
    fingerprints every entry at the same depth with ``fingerprint(entry,
    n_epochs)``, estimates ``T_id`` from those fingerprints by Section
    5.3's rules (which read every library pair) and matches ``vector``
    with :class:`~repro.core.identification.Identifier`.  With fewer than
    two entries, or no ``T_id`` from their pairs, it matches under
    ``threshold`` instead, and is don't-know when that is None.

    The monitor and the replay pipeline both identify through this
    function, so the two match in one floating-point order.
    """
    vectors = [fingerprint(entry, n_epochs) for entry, _ in library]
    labels = [label for _, label in library]
    if len(vectors) >= 2:
        try:
            threshold = estimate_threshold_online(vectors, labels, alpha)
        except ValueError:
            pass
    if threshold is None:
        return IdentificationResult(
            label=UNKNOWN, nearest_label=None, distance=None, threshold=None
        )
    return Identifier(threshold).identify(vector, list(zip(vectors, labels)))


@dataclass(frozen=True)
class CrisisDetected:
    epoch: int
    crisis_number: int


@dataclass(frozen=True)
class IdentificationUpdate:
    epoch: int
    crisis_number: int
    identification_epoch: int  # 0-based within the five-epoch protocol
    label: str  # crisis label or UNKNOWN
    distance: Optional[float]


@dataclass(frozen=True)
class CrisisEnded:
    epoch: int
    crisis_number: int
    duration_epochs: int


@dataclass(frozen=True)
class EpochUntrusted:
    """The epoch failed the quality gate and was quarantined."""

    epoch: int
    reasons: Tuple[str, ...]


MonitorEvent = Union[
    CrisisDetected, CrisisEnded, EpochUntrusted, IdentificationUpdate
]


@dataclass
class _LiveCrisis:
    number: int
    detected_epoch: int
    #: Raw quantile window: a preallocated columnar block whose
    #: ``view()`` the fingerprint kernels consume directly — no
    #: re-stacking per identification epoch.
    summaries: Optional[WindowBlock] = None
    identifications: int = 0
    ended: bool = False


@dataclass
class _StoredCrisis:
    number: int
    label: Optional[str]
    quantile_window: np.ndarray  # (w, n_metrics, n_quantiles)


class StreamingCrisisMonitor:
    """Online detection + identification over an epoch-summary stream."""

    def __init__(
        self,
        n_metrics: int,
        relevant_metrics: Sequence[int],
        config: FingerprintingConfig = FingerprintingConfig(),
        threshold_refresh_epochs: Optional[int] = None,
        min_history_epochs: Optional[int] = None,
        reliability: ReliabilityConfig = ReliabilityConfig(),
        clock: Optional[EpochClock] = None,
    ):
        cfg_q = config.quantiles
        self.config = config
        self.reliability = reliability
        self.n_metrics = n_metrics
        self.relevant = self._checked_relevant(relevant_metrics)
        # All epoch state — the trailing threshold window, the refresh
        # cadence (default: daily, after a week of history, per the
        # clock) — lives in the engine.
        self._engine = EpochStateEngine(
            n_metrics,
            cfg_q.count,
            config=config,
            clock=clock,
            threshold_refresh_epochs=threshold_refresh_epochs,
            min_history_epochs=min_history_epochs,
        )
        self._crisis_counter = 0
        self._live: Optional[_LiveCrisis] = None
        self._library: List[_StoredCrisis] = []
        self._pre_buffer: List[np.ndarray] = []  # last pre_epochs summaries
        self.untrusted_epochs = 0  # lifetime count of quarantined epochs
        # Opt-in unsupervised discovery (repro.discovery): observes the
        # event stream so don't-know crises grow the catalog.
        self._discovery = None
        # Opt-in predictive early warning (repro.forecast): observes each
        # ingested epoch to score crisis imminence before the SLA breaks.
        self._forecast = None
        # The checkpoint this monitor last wrote or loaded, which its next
        # save extends (repro.core.checkpoint's bookkeeping).
        self._persisted = None

    # -- engine delegation -----------------------------------------------------

    @property
    def engine(self) -> EpochStateEngine:
        """The shared epoch-state engine backing this monitor."""
        return self._engine

    @property
    def clock(self) -> EpochClock:
        return self._engine.clock

    @property
    def store(self) -> RollingThresholdTracker:
        """The epoch history: the tracker, whose ring holds the window.

        ``len(store)`` counts every epoch ingested; ``store.values()``
        holds at most ``engine.window_epochs`` of them.
        """
        return self._engine.tracker

    @property
    def thresholds(self) -> Optional[QuantileThresholds]:
        return self._engine.thresholds

    @thresholds.setter
    def thresholds(self, value: Optional[QuantileThresholds]) -> None:
        self._engine.thresholds = value

    @property
    def threshold_refresh_epochs(self) -> int:
        return self._engine.threshold_refresh_epochs

    @property
    def min_history_epochs(self) -> int:
        return self._engine.min_history_epochs

    @property
    def _epochs_since_refresh(self) -> int:
        return self._engine.epochs_since_refresh

    @_epochs_since_refresh.setter
    def _epochs_since_refresh(self, value: int) -> None:
        self._engine.epochs_since_refresh = value

    # -- parameter management ------------------------------------------------

    def _checked_relevant(self, relevant: Sequence[int]) -> np.ndarray:
        relevant = np.asarray(relevant, dtype=int)
        if relevant.size == 0:
            raise ValueError("need at least one relevant metric")
        if np.any((relevant < 0) | (relevant >= self.n_metrics)):
            raise ValueError("relevant metric index out of range")
        return relevant

    def set_relevant_metrics(self, relevant: Sequence[int]) -> None:
        """Swap the fingerprint columns (from fresh offline selection)."""
        self.relevant = self._checked_relevant(relevant)

    @property
    def ready(self) -> bool:
        """True once enough crisis-free history exists to discretize."""
        return self.thresholds is not None

    # -- unsupervised discovery ------------------------------------------------

    @property
    def discovery(self):
        """The attached :class:`repro.discovery.DiscoveryEngine`, if any."""
        return self._discovery

    def attach_discovery(self, engine) -> None:
        """Opt in to unsupervised discovery: feed don't-know crises to
        ``engine`` (a :class:`repro.discovery.DiscoveryEngine`) so they
        cluster into automatic catalog entries instead of being dropped.
        """
        engine.attach(self)

    def _notify(self, events: List[MonitorEvent]) -> List[MonitorEvent]:
        if self._discovery is not None and events:
            self._discovery.observe(events)
        return events

    # -- predictive early warning ----------------------------------------------

    @property
    def forecast(self):
        """The attached :class:`repro.forecast.ForecastEngine`, if any."""
        return self._forecast

    def attach_forecast(self, engine) -> None:
        """Opt in to predictive early warning: ``engine`` (a
        :class:`repro.forecast.ForecastEngine`) observes every ingested
        epoch and raises calibrated pre-SLA alarms.
        """
        engine.attach(self)

    def _emit(
        self,
        events: List[MonitorEvent],
        epoch: int,
        epoch_quantiles: np.ndarray,
        violation_fraction: float,
        untrusted: bool,
    ) -> List[MonitorEvent]:
        """Per-epoch fan-out: discovery sees events, forecast sees epochs."""
        self._notify(events)
        if self._forecast is not None:
            self._forecast.observe_epoch(
                epoch=epoch,
                epoch_quantiles=epoch_quantiles,
                violation_fraction=violation_fraction,
                events=events,
                untrusted=untrusted,
            )
        return events

    # -- fingerprints ----------------------------------------------------------

    def _fingerprint(self, window: np.ndarray,
                     n_epochs: Optional[int] = None) -> np.ndarray:
        return fingerprint_from_window(
            window, self.thresholds, self.relevant, n_epochs
        )

    def _identify(self, live: _LiveCrisis, epoch: int) -> IdentificationUpdate:
        """One protocol slot: match the live crisis against the library.

        Slot ``k`` re-fingerprints every diagnosed window at depth
        ``pre + k + 1`` under the current thresholds and relevant metrics
        (:func:`identify_slot`).
        """
        k = live.identifications
        depth = self.config.fingerprint.pre_epochs + k + 1
        result = identify_slot(
            self._fingerprint(live.summaries.view(), depth),
            [
                (stored.quantile_window, stored.label)
                for stored in self._library
                if stored.label is not None
            ],
            self._fingerprint,
            depth,
            self.config.identification.alpha,
        )
        live.identifications += 1
        return IdentificationUpdate(
            epoch=epoch,
            crisis_number=live.number,
            identification_epoch=k,
            label=result.label,
            distance=result.distance,
        )

    def _dont_know(self, live: _LiveCrisis, epoch: int) -> IdentificationUpdate:
        """One protocol slot spent on an untrusted epoch: emit don't-know."""
        k = live.identifications
        live.identifications += 1
        return IdentificationUpdate(
            epoch=epoch,
            crisis_number=live.number,
            identification_epoch=k,
            label=UNKNOWN,
            distance=None,
        )

    # -- quality gate ----------------------------------------------------------

    def _gate(
        self,
        epoch_quantiles: np.ndarray,
        quality: Optional[EpochQuality],
    ) -> Tuple[str, ...]:
        """Reasons the epoch cannot be trusted (empty tuple = trusted)."""
        reasons: List[str] = []
        report = validate_epoch_summary(epoch_quantiles)
        if not report.ok:
            reasons.extend(sorted({i.code for i in report.errors}))
        if quality is not None:
            if not quality.quorum_met:
                reasons.append("quorum-failed")
            if quality.coverage < self.reliability.coverage_floor:
                reasons.append("low-coverage")
        return tuple(reasons)

    # -- stream ingestion ------------------------------------------------------

    def ingest(
        self,
        epoch_quantiles: np.ndarray,
        violation_fraction: float,
        quality: Optional[EpochQuality] = None,
    ) -> List[MonitorEvent]:
        """Feed one epoch's datacenter summary; returns emitted events.

        ``violation_fraction`` is the largest per-KPI fraction of machines
        violating their SLA this epoch (the detection statistic).
        ``quality``, when available (the collector emits one per epoch),
        feeds the quality gate; see the module docstring for what happens
        to untrusted epochs.
        """
        epoch_quantiles = np.asarray(epoch_quantiles, dtype=float)
        reasons = self._gate(epoch_quantiles, quality)
        untrusted = bool(reasons)
        anomalous = bool(
            violation_fraction >= 0.10 - 1e-12
        ) if violation_fraction is not None else False
        # Untrusted epochs are quarantined by the engine: stored flagged
        # anomalous (so they can never enter a crisis-free threshold
        # window) with the refresh countdown frozen.
        epoch, _ = self._engine.observe(
            epoch_quantiles, anomalous=anomalous, frozen=untrusted
        )

        events: List[MonitorEvent] = []
        if untrusted:
            self.untrusted_epochs += 1
            events.append(EpochUntrusted(epoch=epoch, reasons=reasons))
            # Detection/crisis-end decisions are deferred: the violation
            # statistic itself comes from the bad epoch.
            if self._live is not None and (
                self._live.identifications
                < self.config.identification.n_epochs
            ):
                events.append(self._dont_know(self._live, epoch))
            return self._emit(
                events, epoch, epoch_quantiles, violation_fraction,
                untrusted=True,
            )

        max_window = self.config.fingerprint.n_epochs
        if self._live is None:
            if anomalous and self.ready:
                self._crisis_counter += 1
                live = _LiveCrisis(
                    number=self._crisis_counter, detected_epoch=epoch
                )
                live.summaries = WindowBlock.from_rows(
                    list(self._pre_buffer) + [epoch_quantiles],
                    capacity=max_window,
                )
                self._live = live
                events.append(
                    CrisisDetected(epoch=epoch, crisis_number=live.number)
                )
                events.append(self._identify(live, epoch))
            else:
                self._pre_buffer.append(epoch_quantiles)
                if len(self._pre_buffer) > self.config.fingerprint.pre_epochs:
                    self._pre_buffer.pop(0)
        else:
            live = self._live
            if len(live.summaries) < max_window:
                live.summaries.append(epoch_quantiles)
            if (
                live.identifications < self.config.identification.n_epochs
            ):
                events.append(self._identify(live, epoch))
            if not anomalous:
                events.append(
                    CrisisEnded(
                        epoch=epoch,
                        crisis_number=live.number,
                        duration_epochs=epoch - live.detected_epoch,
                    )
                )
                self._store_live()
                self._pre_buffer = [epoch_quantiles]
        return self._emit(
            events, epoch, epoch_quantiles, violation_fraction,
            untrusted=False,
        )

    def _store_live(self) -> None:
        live = self._live
        self._library.append(
            _StoredCrisis(
                number=live.number,
                label=None,
                quantile_window=live.summaries.snapshot(),
            )
        )
        self._live = None

    # -- operator interaction ----------------------------------------------------

    def diagnose(self, crisis_number: int, label: str) -> None:
        """Attach the operators' diagnosis to a past crisis."""
        if not label:
            raise ValueError("label must be non-empty")
        for stored in self._library:
            if stored.number == crisis_number:
                stored.label = label
                if self._discovery is not None:
                    self._discovery.on_diagnose(crisis_number, label)
                return
        raise KeyError(f"no stored crisis {crisis_number}")

    @property
    def library_labels(self) -> List[Optional[str]]:
        return [s.label for s in self._library]


__all__ = [
    "CrisisDetected",
    "CrisisEnded",
    "EpochUntrusted",
    "IdentificationUpdate",
    "MonitorEvent",
    "StreamingCrisisMonitor",
    "identify_slot",
]
