"""Telemetry substrate: epochs, quantile summaries, and rolling stores.

This package provides the monitoring plumbing the fingerprinting method sits
on: a 15-minute epoch timebase, exact datacenter-wide quantile computation,
a streaming Greenwald-Khanna quantile sketch for deployments where exact
computation is too expensive, and a rolling store of quantile history used
to maintain hot/cold thresholds online.
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
from repro.telemetry.store import QuantileStore
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
    "QuantileStore",
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
