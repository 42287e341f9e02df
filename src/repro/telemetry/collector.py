"""Telemetry collection pipeline: agents, aggregator, epoch summaries.

The paper's datacenter collects ~100 metrics per machine per 15-minute
epoch with off-the-shelf monitoring (HP OpenView, Ganglia).  This module
provides that plumbing for live deployments of the pipeline:

* :class:`MachineAgent` buffers one machine's samples for the current
  epoch (metrics may be sampled more often than the epoch length and are
  averaged, as in the paper's dataset);
* :class:`EpochAggregator` collects agent reports and reduces them to the
  datacenter-wide quantile summary — exactly, or with Greenwald-Khanna
  sketches when the fleet is too large to gather raw values.

The aggregator's output is the ``(n_metrics, n_quantiles)`` matrix the
fingerprinting pipeline consumes, so a live deployment swaps the simulator
for agents without touching anything downstream.

Degraded operation is first-class: machines in crisis are exactly the
machines whose telemetry fails, so agents drop-and-count non-finite
samples instead of raising (strict mode is available behind a flag),
the aggregator accepts partial fleets, and every epoch summary carries an
:class:`EpochQuality` record — fleet coverage, dropped samples, stale and
dead agents — that downstream consumers (the streaming monitor's quality
gate) use to decide how much to trust the epoch.  Quorum rules live in
:mod:`repro.telemetry.reliability` and apply identically to the exact and
sketch paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.columnar import EpochBlock
from repro.telemetry.quantiles import masked_quantiles
from repro.telemetry.reliability import AgentHealthTracker, QuorumPolicy
from repro.telemetry.sketches import GKQuantileSketch


class MachineAgent:
    """Buffers one machine's metric samples within an epoch.

    Non-finite samples (a crashing collector emits NaNs and garbage
    counters) are dropped and counted rather than raised by default;
    ``strict=True`` restores fail-fast behavior for development setups
    where any bad sample is a bug.
    """

    def __init__(self, machine_id: str, metric_names: Sequence[str],
                 strict: bool = False):
        if not metric_names:
            raise ValueError("need at least one metric")
        self.machine_id = machine_id
        self.metric_names = list(metric_names)
        self.strict = strict
        self._index = {m: i for i, m in enumerate(self.metric_names)}
        self._sums = np.zeros(len(self.metric_names))
        self._counts = np.zeros(len(self.metric_names), dtype=int)
        self._dropped = 0

    @property
    def dropped_samples(self) -> int:
        """Non-finite samples dropped since the last flush."""
        return self._dropped

    def record(self, metric: str, value: float) -> None:
        """Record one sample (metrics may be sampled sub-epoch)."""
        try:
            i = self._index[metric]
        except KeyError:
            raise KeyError(f"unknown metric {metric!r}") from None
        if not np.isfinite(value):
            if self.strict:
                raise ValueError(f"non-finite sample for {metric}")
            self._dropped += 1
            return
        self._sums[i] += value
        self._counts[i] += 1

    def record_all(self, values: Sequence[float]) -> None:
        """Record one sample for every metric at once.

        A partially-garbled vector keeps its finite entries: only the
        offending metrics are dropped (and counted), so one bad counter
        does not discard an otherwise healthy sample.
        """
        values = np.asarray(values, dtype=float)
        if values.shape != (len(self.metric_names),):
            raise ValueError("value count mismatch")
        finite = np.isfinite(values)
        if not finite.all():
            if self.strict:
                raise ValueError("non-finite sample")
            self._dropped += int((~finite).sum())
        self._sums[finite] += values[finite]
        self._counts[finite] += 1

    def flush(self) -> np.ndarray:
        """Epoch aggregate (mean per metric); unreported metrics are NaN."""
        with np.errstate(invalid="ignore"):
            out = np.where(
                self._counts > 0, self._sums / np.maximum(self._counts, 1),
                np.nan,
            )
        self._sums[:] = 0.0
        self._counts[:] = 0
        self._dropped = 0
        return out


@dataclass(frozen=True)
class EpochQuality:
    """How trustworthy one epoch's summary is.

    Downstream consumers gate on :attr:`coverage` (reporting fraction of
    the expected fleet) and :attr:`quorum_met`; the remaining counters
    exist for operator dashboards and postmortems.
    """

    epoch: int
    n_reporting: int
    fleet_size: Optional[int] = None  # None when the fleet is unknown
    dropped_samples: int = 0  # non-finite entries dropped fleet-wide
    n_stale_agents: int = 0
    n_dead_agents: int = 0
    quorum_met: bool = True

    @property
    def coverage(self) -> float:
        """Fraction of the expected fleet that reported this epoch."""
        if self.fleet_size is None or self.fleet_size <= 0:
            return 1.0 if self.n_reporting > 0 else 0.0
        return min(self.n_reporting / self.fleet_size, 1.0)


@dataclass
class EpochSummary:
    """One epoch's datacenter-wide summary."""

    epoch: int
    quantiles: np.ndarray  # (n_metrics, n_quantiles)
    n_machines_reporting: int
    quality: Optional[EpochQuality] = None


class EpochAggregator:
    """Reduces agent reports to datacenter-wide metric quantiles.

    With ``mode="exact"`` all reports are gathered and quantiles computed
    exactly (what the paper did for several hundred machines).  With
    ``mode="sketch"`` each metric feeds a Greenwald-Khanna sketch, keeping
    aggregator memory sublinear in the fleet size.

    Both modes accept partial fleets: reports may contain NaN entries
    (dropped per metric), machines may stay silent, and the epoch closes
    regardless.  When ``fleet_size`` is known, the ``quorum`` policy
    decides whether the partial epoch is still summarizable; below quorum
    the summary is all-NaN and flagged in its quality record, identically
    on both paths.

    In exact mode reports land in a preallocated
    :class:`repro.core.columnar.EpochBlock` (reused across epochs) and
    the close computes NaN-masked per-metric quantiles in single numpy
    passes (:func:`repro.telemetry.quantiles.masked_quantiles`).
    :meth:`submit_batch` folds whole ``(batch, n_metrics)`` report
    matrices in one vectorized pass on both modes.
    """

    def __init__(
        self,
        metric_names: Sequence[str],
        quantiles: Sequence[float] = (0.25, 0.50, 0.95),
        mode: str = "exact",
        sketch_eps: float = 0.01,
        fleet_size: Optional[int] = None,
        quorum: Optional[QuorumPolicy] = None,
    ):
        if mode not in ("exact", "sketch"):
            raise ValueError(f"unknown mode {mode!r}")
        self.metric_names = list(metric_names)
        self.quantiles = tuple(quantiles)
        self.mode = mode
        self.sketch_eps = sketch_eps
        self.fleet_size = fleet_size
        self.quorum = quorum if quorum is not None else QuorumPolicy(
            min_fraction=0.0, min_count=1
        )
        self._epoch = 0
        self._n_reports = 0
        self._block: Optional[EpochBlock] = None
        if mode == "exact":
            self._block = EpochBlock(len(self.metric_names))
        self._dropped = 0
        self._sketches: Optional[List[GKQuantileSketch]] = None
        if mode == "sketch":
            self._reset_sketches()

    def _reset_sketches(self) -> None:
        self._sketches = [
            GKQuantileSketch(eps=self.sketch_eps)
            for _ in self.metric_names
        ]

    @property
    def epoch(self) -> int:
        return self._epoch

    def submit(self, report: np.ndarray) -> None:
        """Accept one machine's epoch aggregate (NaN entries allowed)."""
        report = np.asarray(report, dtype=float)
        if report.shape != (len(self.metric_names),):
            raise ValueError("report length mismatch")
        if self._block is not None:
            self._dropped += self._block.append(report)
        else:
            finite = np.isfinite(report)
            if not finite.all():
                self._dropped += int((~finite).sum())
                report = np.where(finite, report, np.nan)
            for sketch, value in zip(self._sketches, report):
                if np.isfinite(value):
                    sketch.insert(float(value))
        self._n_reports += 1

    def submit_batch(self, matrix: np.ndarray) -> None:
        """Accept many machines' epoch aggregates in one vectorized pass.

        Semantically ``submit`` per row.  On the columnar exact path the
        whole batch lands in the epoch block with one copy and one
        NaN-mask; on the sketch path each metric's finite column is
        sorted once and folded in via
        :meth:`GKQuantileSketch.from_sorted` + ``merge`` (error-bounded
        like the fleet folder's batch fold, not bit-identical to
        per-value inserts).
        """
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[1] != len(self.metric_names):
            raise ValueError(
                f"batch must be (n, {len(self.metric_names)}), "
                f"got {matrix.shape}"
            )
        n = matrix.shape[0]
        if n == 0:
            return
        if self._block is not None:
            self._dropped += self._block.append_batch(matrix)
        else:
            finite = np.isfinite(matrix)
            self._dropped += int(matrix.size - int(finite.sum()))
            for j, sketch in enumerate(self._sketches):
                col = matrix[finite[:, j], j]
                if col.size == 0:
                    continue
                batch = GKQuantileSketch.from_sorted(
                    np.sort(col), eps=self.sketch_eps
                )
                self._sketches[j] = (
                    batch if len(sketch) == 0 else sketch.merge(batch)
                )
        self._n_reports += n

    def note_dropped(self, n: int) -> None:
        """Fold agent-side dropped-sample counts into this epoch's quality."""
        self._dropped += int(n)

    def close_epoch(
        self,
        n_stale_agents: int = 0,
        n_dead_agents: int = 0,
    ) -> EpochSummary:
        """Finish the current epoch and emit its summary.

        With an unknown fleet (``fleet_size=None``) an epoch with zero
        reports still raises — there is no way to tell a dead collector
        from an idle one.  With a known fleet the epoch closes regardless
        and quorum failures surface as an all-NaN summary whose quality
        record says why.
        """
        n = self._n_reports
        if n == 0 and self.fleet_size is None:
            raise ValueError("no machine reported this epoch")
        shape = (len(self.metric_names), len(self.quantiles))
        quorum_met = self.quorum.met(n, self.fleet_size)
        if not quorum_met or n == 0:
            q = np.full(shape, np.nan)
            if self.mode == "sketch":
                self._reset_sketches()
        elif self._block is not None:
            # Exact close: one in-place column sort + one rank gather
            # over the block's filled rows, NaN gaps handled in the same
            # pass.  Counts were tracked on ingest, and the block is
            # reset below, so the sort may destroy the buffer.
            q = masked_quantiles(
                self._block.matrix(),
                self.quantiles,
                counts=self._block.column_counts(),
                overwrite=True,
            )
        else:
            q = np.empty(shape)
            for i, sketch in enumerate(self._sketches):
                if len(sketch) == 0:
                    q[i] = np.nan
                else:
                    q[i] = [sketch.query(p) for p in self.quantiles]
            self._reset_sketches()
        quality = EpochQuality(
            epoch=self._epoch,
            n_reporting=n,
            fleet_size=self.fleet_size,
            dropped_samples=self._dropped,
            n_stale_agents=n_stale_agents,
            n_dead_agents=n_dead_agents,
            quorum_met=quorum_met,
        )
        summary = EpochSummary(
            epoch=self._epoch, quantiles=q, n_machines_reporting=n,
            quality=quality,
        )
        self._n_reports = 0
        if self._block is not None:
            self._block.reset()
        self._dropped = 0
        self._epoch += 1
        return summary


def is_report(values: np.ndarray) -> "np.ndarray | bool":
    """Whether a machine's epoch values are a report (per row of a matrix).

    Values with a finite entry are a report.  Values with none are no
    report: the machine is silent this epoch and accrues a miss.
    """
    return np.isfinite(values).any(axis=-1)


def close_health(
    health: AgentHealthTracker, epoch: int
) -> Tuple[int, int, int]:
    """Close ``health``'s epoch; the fleet the epoch is judged against.

    Returns ``(fleet_size, n_stale_agents, n_dead_agents)``.  The fleet
    is the breaker-adjusted one (at least one agent), so coverage (and
    therefore quorum) reflects machines that *should* be reporting, not
    long-dead ones.  :class:`CollectionPipeline` and the serving tenant
    both close their epochs through here and :func:`is_report`.
    """
    health.close_epoch(epoch)
    n_stale, n_dead = health.counts()
    return max(health.n_agents - n_dead, 1), n_stale, n_dead


class CollectionPipeline:
    """Agents plus an aggregator for a whole fleet, driven epoch by epoch.

    Tracks per-agent health: machines silent for ``dead_after``
    consecutive epochs trip their circuit breaker and leave the expected
    fleet (see :func:`close_health`).

    ``aggregator`` is the reduction the agents' reports feed.  By
    default it is an :class:`EpochAggregator` built from ``quantiles``,
    ``mode`` and ``quorum``; pass a
    :class:`repro.fleet.FleetAggregator` to fan the reduction out across
    worker processes (the pipeline does not shut it down).
    """

    def __init__(
        self,
        machine_ids: Sequence[str],
        metric_names: Sequence[str],
        quantiles: Sequence[float] = (0.25, 0.50, 0.95),
        mode: str = "exact",
        strict: bool = False,
        quorum: Optional[QuorumPolicy] = None,
        dead_after: int = 4,
        aggregator=None,
    ):
        if not machine_ids:
            raise ValueError("need at least one machine")
        self.agents: Dict[str, MachineAgent] = {
            mid: MachineAgent(mid, metric_names, strict=strict)
            for mid in machine_ids
        }
        self.health = AgentHealthTracker(machine_ids, dead_after=dead_after)
        if aggregator is None:
            aggregator = EpochAggregator(
                metric_names, quantiles=quantiles, mode=mode,
                fleet_size=len(machine_ids), quorum=quorum,
            )
        self.aggregator = aggregator

    def close_epoch(self) -> EpochSummary:
        """Flush every agent into the aggregator and emit the summary."""
        epoch = self.aggregator.epoch
        for mid, agent in self.agents.items():
            self.aggregator.note_dropped(agent.dropped_samples)
            report = agent.flush()
            if is_report(report):
                self.aggregator.submit(report)
                self.health.observe_report(mid, epoch)
        self.aggregator.fleet_size, n_stale, n_dead = close_health(
            self.health, epoch
        )
        return self.aggregator.close_epoch(
            n_stale_agents=n_stale, n_dead_agents=n_dead,
        )


__all__ = [
    "CollectionPipeline",
    "close_health",
    "EpochAggregator",
    "EpochQuality",
    "EpochSummary",
    "MachineAgent",
    "is_report",
]
