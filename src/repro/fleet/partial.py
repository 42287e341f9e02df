"""Mergeable per-shard epoch partials.

Each shard worker folds its machines' reports into a :class:`ShardPartial`
— the only thing that crosses the process boundary back to the
coordinator.  Two kinds exist, mirroring the two modes of
:class:`repro.telemetry.collector.EpochAggregator`:

* **exact** — the multiset of finite values per metric.  Merging is
  concatenation; the coordinator sorts the union and applies the paper's
  order-statistic rule (:func:`repro.telemetry.quantiles.quantile_ranks`),
  so the result is *bit-identical* to the single-process aggregator: both
  reduce the same multiset with the same rank formula, and sorting is
  order-independent.
* **sketch** — one Greenwald-Khanna sketch per metric, built by sorting
  each report chunk (vectorized) and folding it in via
  :meth:`GKQuantileSketch.from_sorted` + :meth:`GKQuantileSketch.merge`.
  Merging shard sketches at the coordinator keeps the combined rank-error
  bound of :meth:`~repro.telemetry.sketches.GKQuantileSketch.merge`, and
  the partial's size is O(metrics / eps) regardless of shard size — the
  "summary independent of the number of machines" property, applied to
  the collection tier.

Everything here is pure (no processes, no queues) so the aggregation
semantics can be tested exhaustively without a worker pool; the pool in
:mod:`repro.fleet.worker` is plumbing around these functions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.columnar import EpochBlock
from repro.telemetry.quantiles import quantile_ranks
from repro.telemetry.sketches import GKQuantileSketch


@dataclass
class ShardPartial:
    """One shard's mergeable contribution to one epoch.

    ``values[j]`` (exact mode) holds metric ``j``'s finite values from
    this shard's reports; ``sketches[j]`` (sketch mode) the shard-local
    GK sketch.  ``counts[j]`` is the number of finite observations of
    metric ``j`` either way.  ``fold_seconds`` is the worker's busy time
    for the epoch, used by the scaling benchmark to show how the work
    divides across shards.
    """

    shard_id: int
    epoch: int
    mode: str
    n_reports: int
    dropped: int
    counts: np.ndarray  # (n_metrics,) finite observations per metric
    values: Optional[List[np.ndarray]] = None
    sketches: Optional[List[GKQuantileSketch]] = None
    fold_seconds: float = 0.0


class ShardFolder:
    """Folds report chunks for one shard into a :class:`ShardPartial`.

    ``fold`` accepts a ``(batch, n_metrics)`` chunk (NaN entries allowed
    — dropped and counted, as in the single-process aggregator); ``close``
    emits the partial and resets for the next epoch.
    """

    def __init__(
        self,
        shard_id: int,
        n_metrics: int,
        mode: str = "exact",
        sketch_eps: float = 0.01,
    ):
        if n_metrics < 1:
            raise ValueError("need at least one metric")
        if mode not in ("exact", "sketch"):
            raise ValueError(f"unknown mode {mode!r}")
        self.shard_id = shard_id
        self.n_metrics = n_metrics
        self.mode = mode
        self.sketch_eps = sketch_eps
        self._reset()

    def _reset(self) -> None:
        self._n_reports = 0
        self._dropped = 0
        self._counts = np.zeros(self.n_metrics, dtype=int)
        if self.mode == "exact":
            # Preallocated columnar block, reused across epochs; the
            # reset below clears occupancy without touching the buffer.
            if not hasattr(self, "_block"):
                self._block = EpochBlock(self.n_metrics)
            self._block.reset()
        self._sketches: List[Optional[GKQuantileSketch]] = [
            None for _ in range(self.n_metrics)
        ]
        self._busy = 0.0

    def fold(self, chunk: np.ndarray) -> None:
        """Fold one chunk of reports into the running partial."""
        start = time.perf_counter()
        chunk = np.asarray(chunk, dtype=float)
        if chunk.ndim != 2 or chunk.shape[1] != self.n_metrics:
            raise ValueError(
                f"chunk must be (batch, {self.n_metrics}), got {chunk.shape}"
            )
        self._n_reports += chunk.shape[0]
        if self.mode == "exact":
            # The block NaN-masks non-finite entries in the same pass
            # that copies the chunk (inf is dropped-and-counted, like
            # the single-process submit path).
            self._dropped += self._block.append_batch(chunk)
        else:
            finite = np.isfinite(chunk)
            self._dropped += int(chunk.size - finite.sum())
            self._counts += finite.sum(axis=0)
            for j in range(self.n_metrics):
                col = chunk[finite[:, j], j]
                if col.size == 0:
                    continue
                batch = GKQuantileSketch.from_sorted(
                    np.sort(col), eps=self.sketch_eps
                )
                running = self._sketches[j]
                self._sketches[j] = (
                    batch if running is None else running.merge(batch)
                )
        self._busy += time.perf_counter() - start

    def close(self, epoch: int) -> ShardPartial:
        """Emit this epoch's partial and reset the folder."""
        start = time.perf_counter()
        if self.mode == "exact":
            # One column-wise sort; each metric's finite values are the
            # leading ``counts[j]`` rows (NaN sorts last), so the
            # per-metric filter loops collapse to constant-time slices.
            # Values come out sorted — the merge step re-sorts the
            # cross-shard union anyway, so the summary is unchanged.
            counts = self._block.column_counts()
            ordered = np.sort(self._block.matrix(), axis=0)
            values = [
                ordered[: counts[j], j] for j in range(self.n_metrics)
            ]
            self._counts = counts
            partial = ShardPartial(
                shard_id=self.shard_id,
                epoch=epoch,
                mode="exact",
                n_reports=self._n_reports,
                dropped=self._dropped,
                counts=self._counts,
                values=values,
            )
        else:
            partial = ShardPartial(
                shard_id=self.shard_id,
                epoch=epoch,
                mode="sketch",
                n_reports=self._n_reports,
                dropped=self._dropped,
                counts=self._counts,
                sketches=[
                    sk if sk is not None else GKQuantileSketch(self.sketch_eps)
                    for sk in self._sketches
                ],
            )
        busy = self._busy + (time.perf_counter() - start)
        partial.fold_seconds = busy
        self._reset()
        return partial


def merge_partials(
    partials: Sequence[ShardPartial],
    n_metrics: int,
    quantiles: Sequence[float],
) -> np.ndarray:
    """Reduce shard partials to the ``(n_metrics, n_quantiles)`` summary.

    Exact partials reproduce the single-process aggregator bit-for-bit:
    per metric, the union of finite values is sorted and the
    ``ceil(n*p)``-th order statistics are taken, exactly as
    ``EpochAggregator.close_epoch`` does over its epoch block.
    Sketch partials are merged per metric and queried; metrics nobody
    observed come back NaN on both paths.
    """
    shape = (n_metrics, len(quantiles))
    out = np.full(shape, np.nan)
    if not partials:
        return out
    modes = {p.mode for p in partials}
    if len(modes) != 1:
        raise ValueError(f"cannot merge mixed-mode partials: {modes}")
    mode = modes.pop()
    if mode == "exact":
        # One flat concatenation keyed by metric id, one lexsort, one
        # rank gather — no per-metric Python sort/rank loops.  The
        # lexsort's primary key is the metric id and the secondary key
        # the value, so rows [offset[j] : offset[j] + counts[j]] of the
        # flat array are exactly metric j's sorted union, which is what
        # the historical per-metric ``np.sort(concatenate(...))`` built.
        counts = np.zeros(n_metrics, dtype=np.int64)
        arrays: List[np.ndarray] = []
        for j in range(n_metrics):
            for p in partials:
                vals = p.values[j]
                if vals.size:
                    arrays.append(vals)
                    counts[j] += vals.size
        if not arrays:
            return out
        flat = np.concatenate(arrays)
        ids = np.repeat(np.arange(n_metrics), counts)
        flat = flat[np.lexsort((flat, ids))]
        offsets = np.concatenate(([0], np.cumsum(counts[:-1])))
        ranks = quantile_ranks(counts, quantiles)
        idx = np.minimum(offsets[:, None] + ranks, flat.size - 1)
        gathered = flat[idx]
        np.copyto(out, gathered, where=(counts > 0)[:, None])
    else:
        for j in range(n_metrics):
            sketch: Optional[GKQuantileSketch] = None
            for p in partials:
                shard_sketch = p.sketches[j]
                if len(shard_sketch) == 0:
                    continue
                sketch = (
                    shard_sketch if sketch is None
                    else sketch.merge(shard_sketch)
                )
            if sketch is not None:
                out[j] = [sketch.query(q) for q in quantiles]
    return out


__all__ = ["ShardFolder", "ShardPartial", "merge_partials"]
