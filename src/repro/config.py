"""Shared configuration objects for the fingerprinting reproduction.

All free parameters of the method (Section 5 of DESIGN.md) live here so that
experiments can vary them explicitly instead of reaching into module globals.
Every config is a frozen dataclass: configurations are values, and two runs
with equal configs must behave identically given equal seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

#: Number of minutes in one aggregation epoch (established practice in the
#: paper's datacenter; Section 4.1).
EPOCH_MINUTES = 15

#: Number of epochs per day at 15-minute aggregation.
EPOCHS_PER_DAY = 24 * 60 // EPOCH_MINUTES


@dataclass(frozen=True)
class QuantileConfig:
    """Which quantiles summarize each metric across the datacenter.

    The paper tracks the 25th, 50th and 95th quantile of every metric
    (Section 3.2); tracking fewer loses the "quantiles move in different
    directions" signal used for identification.
    """

    quantiles: Tuple[float, ...] = (0.25, 0.50, 0.95)

    def __post_init__(self) -> None:
        if not self.quantiles:
            raise ValueError("at least one quantile is required")
        for q in self.quantiles:
            if not 0.0 <= q <= 1.0:
                raise ValueError(f"quantile {q!r} outside [0, 1]")
        if list(self.quantiles) != sorted(self.quantiles):
            raise ValueError("quantiles must be sorted ascending")

    @property
    def count(self) -> int:
        return len(self.quantiles)


@dataclass(frozen=True)
class ThresholdConfig:
    """Hot/cold discretization of quantile values (Section 3.3).

    A quantile value is *normal* when it lies between the ``cold_percentile``
    and ``hot_percentile`` of its values over a trailing crisis-free window of
    ``window_days``; outside that range it is cold (-1) or hot (+1).  The
    paper uses the 2nd/98th percentiles over 240 days and shows wider settings
    (1/99, 5/95, 10/90) discriminate worse (Section 6.2).
    """

    cold_percentile: float = 2.0
    hot_percentile: float = 98.0
    window_days: int = 240

    def __post_init__(self) -> None:
        if not 0.0 <= self.cold_percentile < self.hot_percentile <= 100.0:
            raise ValueError(
                "need 0 <= cold_percentile < hot_percentile <= 100, got "
                f"({self.cold_percentile}, {self.hot_percentile})"
            )
        if self.window_days <= 0:
            raise ValueError("window_days must be positive")


@dataclass(frozen=True)
class SelectionConfig:
    """Relevant-metric selection (Section 3.4).

    For each crisis, L1-regularized logistic regression on per-machine
    (metrics -> SLA-violation) data picks ``per_crisis_top_k`` metrics; the
    ``n_relevant`` most frequently selected metrics over the last
    ``crisis_pool`` crises become the fingerprint columns.  The paper uses
    top-10 per crisis, a pool of 20 crises, and 15 (offline) or 30 (online)
    relevant metrics.
    """

    per_crisis_top_k: int = 10
    n_relevant: int = 30
    crisis_pool: int = 20

    def __post_init__(self) -> None:
        if self.per_crisis_top_k <= 0:
            raise ValueError("per_crisis_top_k must be positive")
        if self.n_relevant <= 0:
            raise ValueError("n_relevant must be positive")
        if self.crisis_pool <= 0:
            raise ValueError("crisis_pool must be positive")


@dataclass(frozen=True)
class FingerprintConfig:
    """Crisis-fingerprint summarization window (Sections 3.5 and 6.1).

    Epoch fingerprints from ``pre_epochs`` epochs before the crisis start
    through ``post_epochs`` epochs after it are averaged column-wise into the
    crisis fingerprint.  The paper averages -30 min ... +60 min, i.e. 2 epochs
    before through 4 after (7 epochs total).
    """

    pre_epochs: int = 2
    post_epochs: int = 4

    def __post_init__(self) -> None:
        if self.pre_epochs < 0 or self.post_epochs < 0:
            raise ValueError("window extents must be non-negative")

    @property
    def n_epochs(self) -> int:
        return self.pre_epochs + self.post_epochs + 1

    def window(
        self,
        detection_epoch: int,
        n_total_epochs: int,
        n_epochs: Optional[int] = None,
    ) -> slice:
        """The summary window of a crisis detected at ``detection_epoch``.

        Epochs ``detection - pre_epochs`` through ``detection +
        post_epochs``, clipped to a trace of ``n_total_epochs``.
        ``n_epochs`` keeps only that many rows (at least one), counted
        from the window's first epoch: the partial window of the online
        protocol, ``pre_epochs + k + 1`` rows at identification epoch k.
        """
        lo = max(detection_epoch - self.pre_epochs, 0)
        hi = min(detection_epoch + self.post_epochs, n_total_epochs - 1) + 1
        if n_epochs is not None:
            hi = min(hi, lo + max(n_epochs, 1))
        return slice(lo, hi)


@dataclass(frozen=True)
class IdentificationConfig:
    """Online identification policy (Sections 4.3 and 5.3).

    Identification is attempted once per epoch for ``n_epochs`` epochs
    starting at detection.  ``alpha`` is the target false-alarm rate used to
    pick the identification threshold from a distance ROC (offline) or from
    the adaptive rules of Section 5.3 (online).
    """

    n_epochs: int = 5
    alpha: float = 0.05

    def __post_init__(self) -> None:
        if self.n_epochs <= 0:
            raise ValueError("n_epochs must be positive")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")


@dataclass(frozen=True)
class ReliabilityConfig:
    """Operational fault-tolerance policy for the live path.

    The method's inputs degrade exactly when crises happen, so the live
    path quarantines untrustworthy epochs instead of letting them poison
    thresholds or force a misidentification.  ``coverage_floor`` is the
    minimum fleet-coverage fraction for an epoch summary to be trusted.
    """

    coverage_floor: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.coverage_floor <= 1.0:
            raise ValueError("coverage_floor must lie in [0, 1]")


@dataclass(frozen=True)
class FleetConfig:
    """Sharded fleet-aggregation policy (:mod:`repro.fleet`).

    ``n_shards`` worker processes each fold a hash-partitioned slice of
    the fleet's reports; ``batch_size`` reports are stacked into one
    chunk before crossing the process boundary, and each worker's task
    queue holds at most ``queue_depth`` chunks (submission blocks beyond
    that — backpressure instead of unbounded memory).  ``mode`` selects
    exact per-shard partials (bit-identical to the single-process
    aggregator) or mergeable Greenwald-Khanna sketches with per-shard
    error ``sketch_eps``.  An epoch close waits at most
    ``close_deadline_s`` seconds for shard partials; stragglers and dead
    workers beyond the deadline leave the epoch degraded (shard-level
    coverage accounting) instead of blocking the monitor.
    """

    n_shards: int = 4
    batch_size: int = 512
    queue_depth: int = 8
    mode: str = "exact"
    sketch_eps: float = 0.01
    close_deadline_s: float = 10.0
    start_method: Optional[str] = None  # None = platform default

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError("n_shards must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be positive")
        if self.mode not in ("exact", "sketch"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0.0 < self.sketch_eps < 1.0:
            raise ValueError("sketch_eps must lie in (0, 1)")
        if self.close_deadline_s <= 0:
            raise ValueError("close_deadline_s must be positive")
        if self.start_method not in (None, "fork", "spawn", "forkserver"):
            raise ValueError(f"unknown start method {self.start_method!r}")


@dataclass(frozen=True)
class DiscoveryConfig:
    """Policy for unsupervised crisis discovery (:mod:`repro.discovery`).

    Unidentified crisis fingerprints stream into an online medoid
    clusterer.  A fingerprint within ``assign_radius`` of a cluster
    medoid joins that cluster; otherwise it seeds a new one.  When
    ``assign_radius`` is ``None`` the radius is auto-calibrated from the
    first ``calibration_size`` fingerprints (largest gap in their sorted
    pairwise distances, scaled by ``radius_scale``) — the unlabeled
    analogue of the paper's Section 5.3 threshold rules, which need
    labels this setting does not have.

    Lifecycle knobs are expressed as fractions of the assignment radius
    and deliberately leave a hysteresis band between them: two clusters
    merge when their medoids drift within ``merge_fraction * radius``
    (and the merged cluster would satisfy the split bound), and a
    cluster splits when a member strays beyond
    ``split_fraction * radius`` of the medoid (and the two new medoids
    would sit farther apart than the merge bound).  Because each
    transition commits only when it cannot immediately re-trigger the
    opposite one, merge/split cannot oscillate on static evidence
    (property-tested in ``tests/test_discovery_properties.py``).

    A cluster is *promoted* into a catalog entry once its stability
    score (evidence count, summed across merges) reaches
    ``promote_stability`` with at least ``min_promote_size`` members;
    promoted entries get labels ``{label_prefix}{cluster_id}`` and join
    the supervised identification path.  ``history_limit`` bounds the
    retained cluster-event history (the checkpointed audit trail).
    """

    assign_radius: Optional[float] = None  # None = auto-calibrate
    radius_scale: float = 1.0
    calibration_size: int = 12
    merge_fraction: float = 0.5
    split_fraction: float = 3.0
    promote_stability: int = 4
    min_promote_size: int = 3
    history_limit: int = 4096
    label_prefix: str = "discovered-"
    auto_promote: bool = True

    def __post_init__(self) -> None:
        if self.assign_radius is not None and self.assign_radius <= 0:
            raise ValueError("assign_radius must be positive")
        if self.radius_scale <= 0:
            raise ValueError("radius_scale must be positive")
        if self.calibration_size < 2:
            raise ValueError("calibration_size must be at least 2")
        if not 0.0 < self.merge_fraction <= 1.0:
            raise ValueError("merge_fraction must lie in (0, 1]")
        if self.split_fraction < 1.0:
            raise ValueError("split_fraction must be at least 1")
        if self.merge_fraction >= self.split_fraction:
            raise ValueError(
                "merge_fraction must be below split_fraction "
                "(the gap is the merge/split hysteresis band)"
            )
        if self.promote_stability < 1:
            raise ValueError("promote_stability must be positive")
        if self.min_promote_size < 1:
            raise ValueError("min_promote_size must be positive")
        if self.history_limit < 1:
            raise ValueError("history_limit must be positive")
        if not self.label_prefix:
            raise ValueError("label_prefix must be non-empty")

    def merge_radius(self, radius: float) -> float:
        """Medoid distance below which two clusters merge."""
        return self.merge_fraction * radius

    def split_dispersion(self, radius: float) -> float:
        """Member-to-medoid distance beyond which a cluster splits."""
        return self.split_fraction * radius


@dataclass(frozen=True)
class ForecastConfig:
    """Policy for predictive early warning (:mod:`repro.forecast`).

    The forecast engine scores every trusted epoch with a two-stage
    detector: stage 1 asks "will the SLA detector fire within
    ``horizon_epochs``?" from incrementally-derived features; stage 2
    names the most likely fingerprint from the incident catalog.

    Feature knobs: ``slope_window`` trailing epochs feed the per-cell
    quantile-trajectory slopes (and the violation-fraction slope);
    ``churn_window`` trailing epochs feed the don't-know /
    identification / untrusted churn rates.  Alarm knobs:
    ``false_alarm_budget`` is the target alarm rate on normal epochs
    (the ROC operating point picked at calibration), ``cooldown_epochs``
    silences the alarm after it fires (one actionable page per
    impending crisis, not one per epoch), and ``alarm_retain`` bounds
    the in-memory/checkpointed alarm log.  Training knobs: ``cv_folds``
    cross-validation folds select the stage-1 L1 penalty;
    ``match_alpha`` is the false-alarm budget of the stage-2
    identification threshold (Section 5.1.2 semantics).
    """

    horizon_epochs: int = 4
    slope_window: int = 8
    churn_window: int = 8
    false_alarm_budget: float = 0.02
    cooldown_epochs: int = 4
    alarm_retain: int = 1024
    cv_folds: int = 5
    match_alpha: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.horizon_epochs < 1:
            raise ValueError("horizon_epochs must be positive")
        if self.slope_window < 2:
            raise ValueError("slope_window must be at least 2")
        if self.churn_window < 1:
            raise ValueError("churn_window must be positive")
        if not 0.0 < self.false_alarm_budget < 1.0:
            raise ValueError("false_alarm_budget must lie in (0, 1)")
        if self.cooldown_epochs < 0:
            raise ValueError("cooldown_epochs must be non-negative")
        if self.alarm_retain < 1:
            raise ValueError("alarm_retain must be positive")
        if self.cv_folds < 2:
            raise ValueError("cv_folds must be at least 2")
        if not 0.0 <= self.match_alpha <= 1.0:
            raise ValueError("match_alpha must lie in [0, 1]")


@dataclass(frozen=True)
class ServingConfig:
    """Policy for the durable ingestion front door (:mod:`repro.serving`).

    The serving tier runs one streaming monitor per tenant behind a
    JSON-lines TCP endpoint.  Durability knobs: every accepted report is
    journaled (fsync) before it is acked, and a full engine snapshot is
    cut every ``checkpoint_every_epochs`` closed epochs, after which the
    journal is compacted.  Admission knobs: at most ``max_inflight``
    reports may be accepted-but-unapplied at once (beyond that the
    server sheds load with an explicit retry-after instead of queueing
    unboundedly), frames longer than ``max_frame_bytes`` are rejected,
    and a connection idle for ``idle_timeout_s`` mid-frame is dropped
    (slow-loris defense).  Supervision knobs: a tenant engine that
    crashes is restarted with exponential backoff (``restart_base_delay``
    doubling per consecutive crash, jitter seeded by ``seed``) and
    quarantined after ``max_restarts`` consecutive crashes.

    The engine cadence fields mirror the paper's defaults but are
    configurable so tests can run short days (``epoch_minutes`` must
    divide 1440, the :class:`~repro.telemetry.epochs.EpochClock`
    contract).
    """

    # --- engine cadence ---
    n_metrics: int = 8
    n_relevant: int = 4
    quantiles: Tuple[float, ...] = (0.25, 0.50, 0.95)
    epoch_minutes: int = EPOCH_MINUTES
    window_days: int = 240
    threshold_refresh_epochs: Optional[int] = None  # None = daily
    min_history_epochs: Optional[int] = None  # None = 7 days
    coverage_floor: float = 0.5
    # --- durability ---
    checkpoint_every_epochs: int = 4
    #: Crisis events retained in memory (and in each checkpoint /
    #: ``state`` response).  Older events age out of the ring so a
    #: long-running daemon's checkpoints stay bounded.
    event_log_retain: int = 4096
    # --- admission control ---
    max_inflight: int = 1024
    max_frame_bytes: int = 1 << 20
    idle_timeout_s: float = 5.0
    # --- supervision ---
    max_restarts: int = 3
    restart_base_delay: float = 0.05
    restart_max_delay: float = 2.0
    # --- replication (journal shipping to a warm standby) ---
    #: Heartbeat cadence on an idle replication link, so a long-lived
    #: subscription is never mistaken for a slow-loris attack.
    heartbeat_interval_s: float = 1.0
    #: A subscriber that has not acked for this long is presumed dead
    #: and reaped (its journal-retention pin is released).  The standby
    #: uses the same bound for declaring its primary's link dead.
    repl_ack_timeout_s: float = 5.0
    #: Maximum journal records shipped per ``repl_frames`` push.
    repl_batch_records: int = 512
    # --- unsupervised discovery (opt-in) ---
    #: When true every tenant monitor gets a
    #: :class:`repro.discovery.DiscoveryEngine` attached, so don't-know
    #: crises grow the catalog automatically (see ``docs/discovery.md``);
    #: its state rides in the tenant checkpoint and recovery stays
    #: bit-identical.
    discovery_enabled: bool = False
    discovery: "DiscoveryConfig" = field(default_factory=lambda: DiscoveryConfig())
    # --- predictive early warning (opt-in) ---
    #: When true every tenant monitor gets a
    #: :class:`repro.forecast.ForecastEngine` attached (see
    #: ``docs/forecasting.md``); its state rides in the tenant
    #: checkpoint and recovery stays bit-identical.  Without a trained
    #: model (``forecast_model``) the engine streams features and
    #: reports ``fitted: false`` — alarms need a model.
    forecast_enabled: bool = False
    forecast: "ForecastConfig" = field(default_factory=lambda: ForecastConfig())
    #: Optional path to a trained forecast model archive
    #: (``repro forecast train``); loaded into every tenant engine.
    forecast_model: Optional[str] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_metrics < 1:
            raise ValueError("n_metrics must be positive")
        if not 1 <= self.n_relevant <= self.n_metrics:
            raise ValueError("n_relevant must lie in [1, n_metrics]")
        if not self.quantiles:
            raise ValueError("at least one quantile is required")
        if 1440 % self.epoch_minutes != 0:
            raise ValueError("epoch_minutes must divide 1440")
        if self.window_days < 1:
            raise ValueError("window_days must be positive")
        for name in ("threshold_refresh_epochs", "min_history_epochs"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.coverage_floor <= 1.0:
            raise ValueError("coverage_floor must lie in [0, 1]")
        if self.checkpoint_every_epochs < 1:
            raise ValueError("checkpoint_every_epochs must be positive")
        if self.event_log_retain < 1:
            raise ValueError("event_log_retain must be positive")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be positive")
        if self.max_frame_bytes < 64:
            raise ValueError("max_frame_bytes must be at least 64")
        if self.idle_timeout_s <= 0:
            raise ValueError("idle_timeout_s must be positive")
        if self.max_restarts < 1:
            raise ValueError("max_restarts must be positive")
        if self.restart_base_delay < 0 or self.restart_max_delay < 0:
            raise ValueError("restart delays must be non-negative")
        if self.heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be positive")
        if self.repl_ack_timeout_s <= self.heartbeat_interval_s:
            raise ValueError(
                "repl_ack_timeout_s must exceed heartbeat_interval_s "
                "(a live-but-quiet link heartbeats at that cadence)"
            )
        if self.repl_batch_records < 1:
            raise ValueError("repl_batch_records must be positive")

    @property
    def epochs_per_day(self) -> int:
        return 24 * 60 // self.epoch_minutes

    def resolved_refresh_epochs(self) -> int:
        """Threshold refresh cadence, defaulting to one day of epochs."""
        if self.threshold_refresh_epochs is not None:
            return self.threshold_refresh_epochs
        return self.epochs_per_day

    def resolved_min_history(self) -> int:
        """Minimum history before thresholds activate (default: 7 days)."""
        if self.min_history_epochs is not None:
            return self.min_history_epochs
        return 7 * self.epochs_per_day


@dataclass(frozen=True)
class FingerprintingConfig:
    """Bundle of all method parameters, defaulting to the paper's choices."""

    quantiles: QuantileConfig = field(default_factory=QuantileConfig)
    thresholds: ThresholdConfig = field(default_factory=ThresholdConfig)
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    fingerprint: FingerprintConfig = field(default_factory=FingerprintConfig)
    identification: IdentificationConfig = field(
        default_factory=IdentificationConfig
    )

    def with_(self, **kwargs) -> "FingerprintingConfig":
        """Return a copy with the given top-level sections replaced."""
        return replace(self, **kwargs)


__all__ = [
    "EPOCH_MINUTES",
    "EPOCHS_PER_DAY",
    "QuantileConfig",
    "ThresholdConfig",
    "SelectionConfig",
    "FingerprintConfig",
    "IdentificationConfig",
    "DiscoveryConfig",
    "FleetConfig",
    "ForecastConfig",
    "ReliabilityConfig",
    "ServingConfig",
    "FingerprintingConfig",
]
