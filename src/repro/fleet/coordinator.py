"""Fleet coordinator: a process-based sharded epoch aggregator.

:class:`FleetAggregator` is the drop-in sharded replacement for the
single-process :class:`repro.telemetry.collector.EpochAggregator`: it
accepts the same per-machine reports (plus a fast whole-matrix path),
routes them to ``n_shards`` worker processes through bounded queues
(chunked batches, blocking backpressure), and merges the per-shard
partials back into the same :class:`EpochSummary` the rest of the stack
consumes — :class:`repro.core.streaming.StreamingCrisisMonitor` ingests
fleet-produced summaries unchanged.

Degradation is first-class, mirroring PR 1's single-process semantics at
the shard level: an epoch close waits at most ``close_deadline_s`` for
partials; shards that miss the deadline (stragglers, chaos-killed
workers) simply do not contribute, their machines count as non-reporting
in the :class:`FleetEpochQuality` record (feeding the monitor's quality
gate), and dead workers are respawned before the next epoch.  The close
*never* hangs on a lost worker.
"""

from __future__ import annotations

import logging
import queue as queue_module
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import multiprocessing

import numpy as np

from repro.config import FleetConfig
from repro.fleet.partial import ShardPartial, merge_partials
from repro.fleet.planner import ShardPlan, iter_batches, plan_shards, stable_shard
from repro.fleet.worker import worker_main
from repro.telemetry.chaos import ShardChaosConfig
from repro.telemetry.collector import EpochQuality, EpochSummary
from repro.telemetry.reliability import QuorumPolicy

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class FleetEpochQuality(EpochQuality):
    """Epoch quality with shard-level coverage accounting.

    Extends :class:`EpochQuality` (so every downstream consumer of the
    quality gate works unchanged) with which shards actually contributed:
    a missing shard means its machines' reports were lost this epoch,
    which already shows up in ``n_reporting``/``coverage`` — the extra
    fields say *why*.
    """

    n_shards: int = 1
    n_shards_reporting: int = 1
    missing_shards: Tuple[int, ...] = ()


class _Worker:
    """One shard's process and its private task queue."""

    def __init__(self, ctx, shard_id: int, aggregator: "FleetAggregator"):
        self.shard_id = shard_id
        self.task_queue = ctx.Queue(maxsize=aggregator.config.queue_depth)
        self.process = ctx.Process(
            target=worker_main,
            args=(
                shard_id,
                aggregator.n_shards,
                len(aggregator.metric_names),
                aggregator.config.mode,
                aggregator.config.sketch_eps,
                self.task_queue,
                aggregator._result_queue,
                aggregator.chaos,
            ),
            daemon=True,
        )
        self.process.start()


class FleetAggregator:
    """Sharded, parallel reduction of machine reports to epoch summaries.

    Parameters
    ----------
    metric_names:
        The fleet's metric schema (shared by every machine).
    machine_ids:
        When given, fixes the shard plan (stable hash partition) and the
        default ``fleet_size``; reports can then be routed by machine id
        and whole fleet matrices are sliced along the precomputed
        partition.  Without ids, reports are spread round-robin (shard
        choice only affects load balance, not the merged summary).
    config:
        :class:`repro.config.FleetConfig` — shard count, batching,
        backpressure, mode, deadline.
    chaos:
        Optional :class:`~repro.telemetry.chaos.ShardChaosConfig`; the
        fault schedule runs *inside* the workers (see
        :mod:`repro.fleet.worker`).

    Use as a context manager (or call :meth:`shutdown`) — worker
    processes are real.
    """

    def __init__(
        self,
        metric_names: Sequence[str],
        machine_ids: Optional[Sequence[str]] = None,
        quantiles: Sequence[float] = (0.25, 0.50, 0.95),
        config: FleetConfig = FleetConfig(),
        fleet_size: Optional[int] = None,
        quorum: Optional[QuorumPolicy] = None,
        chaos: Optional[ShardChaosConfig] = None,
    ):
        if not metric_names:
            raise ValueError("need at least one metric")
        self.metric_names = list(metric_names)
        self.quantiles = tuple(quantiles)
        self.config = config
        self.chaos = chaos
        self.quorum = quorum if quorum is not None else QuorumPolicy(
            min_fraction=0.0, min_count=1
        )
        self.plan: Optional[ShardPlan] = None
        if machine_ids is not None:
            self.plan = plan_shards(machine_ids, config.n_shards)
            if fleet_size is None:
                fleet_size = len(machine_ids)
        self.fleet_size = fleet_size
        self._epoch = 0
        self._dropped = 0
        self._round_robin = 0
        self._submitted = 0
        self._buffers: List[List[np.ndarray]] = [
            [] for _ in range(config.n_shards)
        ]
        self.last_partials: Dict[int, ShardPartial] = {}
        self.n_respawns = 0  # lifetime count of workers brought back
        self.force_killed_shards: List[int] = []  # shards needing SIGKILL
        self._ctx = multiprocessing.get_context(config.start_method)
        self._result_queue = self._ctx.Queue()
        self._workers: List[_Worker] = [
            _Worker(self._ctx, s, self) for s in range(config.n_shards)
        ]
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "FleetAggregator":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def shutdown(self, join_timeout_s: float = 2.0) -> None:
        """Stop every worker; idempotent — and guaranteed to reap.

        Escalation ladder per worker: cooperative stop sentinel →
        ``join(timeout)`` → ``terminate()`` (SIGTERM) → ``kill()``
        (SIGKILL, which no handler can ignore) → final join.  A hung or
        signal-ignoring worker can therefore never leak a process past
        shutdown; shards that needed SIGKILL are logged and recorded in
        :attr:`force_killed_shards`.
        """
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            if worker.process.is_alive():
                try:
                    worker.task_queue.put(("stop",), timeout=0.5)
                except queue_module.Full:
                    pass
        for worker in self._workers:
            worker.process.join(timeout=join_timeout_s)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=min(join_timeout_s, 1.0))
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=min(join_timeout_s, 1.0))
                self.force_killed_shards.append(worker.shard_id)
                logger.warning(
                    "shard %d ignored terminate; force-killed (SIGKILL)",
                    worker.shard_id,
                )
        self._result_queue.close()

    def _respawn_dead(self) -> None:
        """Replace dead workers (fresh queue — stale batches are lost)."""
        for s, worker in enumerate(self._workers):
            if not worker.process.is_alive():
                worker.task_queue.close()
                self._workers[s] = _Worker(self._ctx, s, self)
                self.n_respawns += 1

    # -- submission --------------------------------------------------------

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def n_shards(self) -> int:
        return self.config.n_shards

    def _put(self, shard: int, message) -> None:
        """Blocking put with a dead-reader escape hatch.

        Backpressure is the point of the bounded queue, so this blocks
        while the worker is alive; if the worker died, the chunk is
        dropped (it will be recorded as shard loss at close) instead of
        deadlocking the coordinator.
        """
        worker = self._workers[shard]
        while True:
            try:
                worker.task_queue.put(message, timeout=0.2)
                return
            except queue_module.Full:
                if not worker.process.is_alive():
                    return

    def _flush_shard(self, shard: int) -> None:
        buffer = self._buffers[shard]
        if not buffer:
            return
        chunk = np.vstack(buffer)
        self._buffers[shard] = []
        self._put(shard, ("batch", self._epoch, chunk))

    def submit(
        self, report: np.ndarray, machine_id: Optional[str] = None
    ) -> None:
        """Accept one machine's epoch report (NaN entries allowed).

        Routed to its planned shard when ``machine_id`` is known,
        round-robin otherwise; buffered and shipped in ``batch_size``
        chunks.
        """
        report = np.asarray(report, dtype=float)
        if report.shape != (len(self.metric_names),):
            raise ValueError("report length mismatch")
        if machine_id is not None:
            shard = stable_shard(machine_id, self.n_shards)
        else:
            shard = self._round_robin
            self._round_robin = (self._round_robin + 1) % self.n_shards
        self._submitted += 1
        buffer = self._buffers[shard]
        buffer.append(report)
        if len(buffer) >= self.config.batch_size:
            self._flush_shard(shard)

    def submit_matrix(self, matrix: np.ndarray) -> None:
        """Accept a whole fleet's epoch matrix at once.

        Rows follow the construction-time ``machine_ids`` order when the
        shapes match (hash-partitioned slicing); otherwise rows are dealt
        contiguously across shards.
        """
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[1] != len(self.metric_names):
            raise ValueError(
                f"matrix must be (n_machines, {len(self.metric_names)})"
            )
        self._submitted += matrix.shape[0]
        if self.plan is not None and matrix.shape[0] == self.plan.n_machines:
            slices = [matrix[rows] for rows in self.plan.rows]
        else:
            slices = np.array_split(matrix, self.n_shards, axis=0)
        for shard, part in enumerate(slices):
            for chunk in iter_batches(part, self.config.batch_size):
                if chunk.shape[0]:
                    self._put(shard, ("batch", self._epoch, chunk))

    def note_dropped(self, n: int) -> None:
        """Fold agent-side dropped-sample counts into this epoch's quality."""
        self._dropped += int(n)

    # -- epoch close -------------------------------------------------------

    def _gather_partials(self, deadline_s: float) -> Dict[int, ShardPartial]:
        partials: Dict[int, ShardPartial] = {}
        deadline = time.monotonic() + deadline_s
        while len(partials) < self.n_shards:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                message = self._result_queue.get(
                    timeout=min(remaining, 0.05)
                )
            except queue_module.Empty:
                # A dead worker will never answer; only keep waiting out
                # the deadline while some missing shard is still alive
                # (a straggler that may yet make it).
                if not any(
                    self._workers[s].process.is_alive()
                    for s in range(self.n_shards)
                    if s not in partials
                ):
                    break
                continue
            _, shard_id, epoch, partial = message
            if epoch != self._epoch:
                continue  # stale straggler from an already-closed epoch
            partials[shard_id] = partial
        return partials

    def close_epoch(
        self,
        n_stale_agents: int = 0,
        n_dead_agents: int = 0,
        deadline_s: Optional[float] = None,
    ) -> EpochSummary:
        """Finish the epoch: flush, gather shard partials, merge, emit.

        Mirrors ``EpochAggregator.close_epoch`` exactly — including the
        unknown-fleet zero-report error and the below-quorum all-NaN
        summary — with shard-level accounting on top.
        """
        for shard in range(self.n_shards):
            self._flush_shard(shard)
        for shard in range(self.n_shards):
            self._put(shard, ("close", self._epoch))
        if deadline_s is None:
            deadline_s = self.config.close_deadline_s
        partials = self._gather_partials(deadline_s)
        self.last_partials = partials
        missing = tuple(
            s for s in range(self.n_shards) if s not in partials
        )
        self._respawn_dead()

        n = sum(p.n_reports for p in partials.values())
        if n == 0 and self._submitted == 0 and self.fleet_size is None:
            # Same contract as the single-process aggregator: with an
            # unknown fleet a silent epoch is indistinguishable from a
            # dead collector.
            self._epoch_reset()
            raise ValueError("no machine reported this epoch")
        dropped = self._dropped + sum(p.dropped for p in partials.values())
        quorum_met = self.quorum.met(n, self.fleet_size)
        if not quorum_met or n == 0:
            quantiles = np.full(
                (len(self.metric_names), len(self.quantiles)), np.nan
            )
        else:
            quantiles = merge_partials(
                list(partials.values()), len(self.metric_names),
                self.quantiles,
            )
        quality = FleetEpochQuality(
            epoch=self._epoch,
            n_reporting=n,
            fleet_size=self.fleet_size,
            dropped_samples=dropped,
            n_stale_agents=n_stale_agents,
            n_dead_agents=n_dead_agents,
            quorum_met=quorum_met,
            n_shards=self.n_shards,
            n_shards_reporting=len(partials),
            missing_shards=missing,
        )
        summary = EpochSummary(
            epoch=self._epoch,
            quantiles=quantiles,
            n_machines_reporting=n,
            quality=quality,
        )
        self._epoch_reset()
        return summary

    def _epoch_reset(self) -> None:
        self._dropped = 0
        self._submitted = 0
        self._round_robin = 0
        self._buffers = [[] for _ in range(self.n_shards)]
        self._epoch += 1


__all__ = [
    "FleetAggregator",
    "FleetEpochQuality",
]
