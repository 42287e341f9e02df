"""Telemetry substrate: epochs, quantile summaries, and collection.

This package provides the monitoring plumbing the fingerprinting method sits
on: a 15-minute epoch timebase, exact datacenter-wide quantile computation,
a streaming Greenwald-Khanna quantile sketch for deployments where exact
computation is too expensive, and the agents and aggregator that collect
per-epoch summaries.  The quantile history behind online hot/cold
thresholds lives in :class:`repro.core.engine.RollingThresholdTracker`.
"""

from repro.telemetry.epochs import (
    EpochClock,
    epoch_of_minute,
    epochs_per_day,
    minutes_of_epoch,
)
from repro.telemetry.quantiles import empirical_quantiles, summarize_epoch
from repro.telemetry.chaos import (
    ChaosConfig,
    ChaosEvent,
    ChaosInjector,
    ShardChaosConfig,
    ShardChaosInjector,
)
from repro.telemetry.collector import (
    CollectionPipeline,
    EpochAggregator,
    EpochQuality,
    EpochSummary,
    MachineAgent,
)
from repro.telemetry.reliability import (
    AgentHealthTracker,
    QuorumPolicy,
    RetryPolicy,
)
from repro.telemetry.sketches import GKQuantileSketch
from repro.telemetry.validation import (
    ValidationIssue,
    ValidationReport,
    validate_epoch_summary,
    validate_history,
)

__all__ = [
    "EpochClock",
    "epoch_of_minute",
    "epochs_per_day",
    "minutes_of_epoch",
    "empirical_quantiles",
    "summarize_epoch",
    "GKQuantileSketch",
    "AgentHealthTracker",
    "ChaosConfig",
    "ChaosEvent",
    "ChaosInjector",
    "CollectionPipeline",
    "EpochAggregator",
    "EpochQuality",
    "EpochSummary",
    "MachineAgent",
    "QuorumPolicy",
    "RetryPolicy",
    "ShardChaosConfig",
    "ShardChaosInjector",
    "ValidationIssue",
    "ValidationReport",
    "validate_epoch_summary",
    "validate_history",
]
