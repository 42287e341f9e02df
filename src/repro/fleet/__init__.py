"""Sharded fleet aggregation: parallel epoch summarization.

The paper's epoch summary is independent of the number of machines
(Section 3.1); this package makes the *collection tier* in front of it
scale the same way.  A :class:`~repro.fleet.planner.ShardPlan`
hash-partitions the fleet across worker processes, each worker folds its
machines' reports into a mergeable :class:`~repro.fleet.partial.ShardPartial`
(exact value multisets, or Greenwald-Khanna sketches with a combined
merge error bound), and the
:class:`~repro.fleet.coordinator.FleetAggregator` merges the partials
into the same :class:`~repro.telemetry.collector.EpochSummary` the
streaming monitor already consumes — straggler- and crash-aware via a
close deadline, shard-level coverage accounting, and worker respawn.

See ``docs/fleet.md`` for architecture, shard sizing, and the
straggler/quorum semantics.
"""

from repro.fleet.coordinator import FleetAggregator, FleetEpochQuality
from repro.fleet.partial import ShardFolder, ShardPartial, merge_partials
from repro.fleet.planner import (
    ShardPlan,
    describe_plan,
    iter_batches,
    plan_shards,
    stable_shard,
)

__all__ = [
    "FleetAggregator",
    "FleetEpochQuality",
    "ShardFolder",
    "ShardPartial",
    "ShardPlan",
    "describe_plan",
    "iter_batches",
    "merge_partials",
    "plan_shards",
    "stable_shard",
]
