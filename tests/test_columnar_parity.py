"""Bit-identity proofs: columnar paths vs the per-machine oracle.

The columnar epoch block is only allowed because every plane has an
exact reference.  The reference for the exact summary lives here, as
one copy: :func:`list_quantiles` (a per-quantile Python loop over each
metric's observed samples) and :class:`ListAggregator` (one list row per
report, stacked at close).  ``tests/test_fleet_partial.py`` and the
``legacy_*`` baseline of ``benchmarks/test_columnar_ingest.py`` import
them.  This suite pins, with ``assert_array_equal`` (no tolerances),
that:

* :func:`repro.telemetry.quantiles.masked_quantiles` is bit-identical
  to ``summarize_epoch`` on fully-finite matrices and to
  :func:`list_quantiles` under arbitrary NaN patterns;
* the columnar :class:`EpochAggregator` (block + single-pass close)
  emits the same summaries and quality records as
  :class:`ListAggregator` under arbitrary NaN patterns, report
  orderings, partial fleets, and below-quorum epochs
  (hypothesis-driven);
* the block-backed :class:`ShardFolder` + vectorized
  ``merge_partials`` reproduce the single-process aggregator over any
  sharding of the same report matrix;
* the serving tenant's block-backed pending buffer closes epochs
  bit-identically to the historical dict-of-lists stacking, including
  idempotent duplicate reports and ``report_batch`` vs per-machine
  ``report`` frames.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from repro.fleet.partial import ShardFolder, merge_partials
from repro.telemetry.collector import (
    EpochAggregator,
    EpochQuality,
    EpochSummary,
)
from repro.telemetry.quantiles import masked_quantiles, summarize_epoch
from repro.telemetry.reliability import QuorumPolicy

QUANTILES = (0.25, 0.50, 0.95)


def list_quantiles(matrix, quantiles):
    """Reference per-metric quantiles of a report matrix with NaN gaps.

    Each metric's ``ceil(n*p)``-th order statistic over the machines
    that reported it, one Python loop per quantile; all-NaN metrics come
    back NaN.  It spells the rank rule out on its own rather than
    calling :func:`repro.telemetry.quantiles.quantile_ranks`, so it
    checks that rule instead of sharing it.
    """
    ordered = np.sort(matrix, axis=0)  # NaNs sort last
    counts = np.isfinite(matrix).sum(axis=0)
    n_metrics = matrix.shape[1]
    out = np.empty((n_metrics, len(quantiles)), dtype=float)
    cols = np.arange(n_metrics)
    for j, p in enumerate(quantiles):
        ranks = np.clip(np.ceil(counts * p).astype(int), 1,
                        np.maximum(counts, 1)) - 1
        out[:, j] = ordered[ranks, cols]
    out[counts == 0] = np.nan
    return out


class ListAggregator:
    """Reference exact aggregator: one NaN-masked list row per report.

    Same contract as the exact :class:`EpochAggregator` (non-finite
    entries dropped and counted, the quorum gate, the quality record)
    without the epoch block: the close stacks the rows and applies
    :func:`list_quantiles`.
    """

    def __init__(self, metric_names, quantiles=QUANTILES, fleet_size=None,
                 quorum=None):
        self.metric_names = list(metric_names)
        self.quantiles = tuple(quantiles)
        self.fleet_size = fleet_size
        self.quorum = quorum if quorum is not None else QuorumPolicy(
            min_fraction=0.0, min_count=1
        )
        self._epoch = 0
        self._reports = []
        self._dropped = 0

    def submit(self, report):
        report = np.asarray(report, dtype=float)
        finite = np.isfinite(report)
        if not finite.all():
            self._dropped += int((~finite).sum())
            report = np.where(finite, report, np.nan)
        self._reports.append(report)

    def submit_batch(self, matrix):
        for row in np.asarray(matrix, dtype=float):
            self.submit(row)

    def close_epoch(self):
        n = len(self._reports)
        if n == 0 and self.fleet_size is None:
            raise ValueError("no machine reported this epoch")
        quorum_met = self.quorum.met(n, self.fleet_size)
        if quorum_met and n:
            q = list_quantiles(np.vstack(self._reports), self.quantiles)
        else:
            q = np.full((len(self.metric_names), len(self.quantiles)),
                        np.nan)
        quality = EpochQuality(
            epoch=self._epoch, n_reporting=n, fleet_size=self.fleet_size,
            dropped_samples=self._dropped, quorum_met=quorum_met,
        )
        summary = EpochSummary(
            epoch=self._epoch, quantiles=q, n_machines_reporting=n,
            quality=quality,
        )
        self._reports = []
        self._dropped = 0
        self._epoch += 1
        return summary


def _matrix_strategy(max_machines=12, max_metrics=5):
    """Report matrices with arbitrary NaN/inf gaps, plus a seed."""
    return st.tuples(
        st.integers(min_value=1, max_value=max_machines),
        st.integers(min_value=1, max_value=max_metrics),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=0.0, max_value=0.9),  # gap probability
    )


def _build_matrix(n, m, seed, gap_p):
    rng = np.random.default_rng(seed)
    matrix = rng.normal(10.0, 5.0, size=(n, m))
    gaps = rng.random((n, m)) < gap_p
    matrix[gaps] = np.nan
    # Some gaps arrive as inf/-inf (garbage counters), which every
    # ingestion path drops-and-counts exactly like NaN.
    infs = rng.random((n, m)) < gap_p / 4
    matrix[infs] = np.where(rng.random((n, m)) < 0.5, np.inf, -np.inf)[infs]
    return matrix


class TestMaskedQuantilesKernel:
    @given(_matrix_strategy())
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_partial_quantiles(self, params):
        n, m, seed, gap_p = params
        matrix = _build_matrix(n, m, seed, gap_p)
        # Both kernels require inf pre-masked to NaN, as the ingestion
        # paths guarantee.
        masked = np.where(np.isfinite(matrix), matrix, np.nan)
        assert_array_equal(
            masked_quantiles(masked, QUANTILES),
            list_quantiles(masked, QUANTILES),
        )

    @given(_matrix_strategy())
    @settings(max_examples=100, deadline=None)
    def test_bit_identical_to_summarize_epoch_when_finite(self, params):
        n, m, seed, _ = params
        matrix = _build_matrix(n, m, seed, 0.0)
        assert_array_equal(
            masked_quantiles(matrix, QUANTILES),
            summarize_epoch(matrix, QUANTILES),
        )

    def test_all_nan_metric_is_nan(self):
        matrix = np.array([[1.0, np.nan], [2.0, np.nan]])
        out = masked_quantiles(matrix, QUANTILES)
        assert_array_equal(out[0], [1.0, 1.0, 2.0])
        assert np.isnan(out[1]).all()

    @given(_matrix_strategy())
    @settings(max_examples=100, deadline=None)
    def test_row_order_invariant(self, params):
        n, m, seed, gap_p = params
        matrix = _build_matrix(n, m, seed, gap_p)
        masked = np.where(np.isfinite(matrix), matrix, np.nan)
        perm = np.random.default_rng(seed ^ 0xFFFF).permutation(n)
        assert_array_equal(
            masked_quantiles(masked, QUANTILES),
            masked_quantiles(masked[perm], QUANTILES),
        )


def _close(agg, matrix, per_report, shuffle_seed=None):
    """Feed a matrix into an aggregator and close the epoch."""
    rows = list(matrix)
    if shuffle_seed is not None:
        order = np.random.default_rng(shuffle_seed).permutation(len(rows))
        rows = [rows[i] for i in order]
    if per_report:
        for row in rows:
            agg.submit(row)
    else:
        agg.submit_batch(np.asarray(rows).reshape(-1, matrix.shape[1]))
    return agg.close_epoch()


class TestAggregatorColumnarParity:
    @given(
        _matrix_strategy(),
        st.booleans(),  # batch vs per-report submission
        st.booleans(),  # shuffle the report order
        st.integers(min_value=0, max_value=14),  # quorum min_count
    )
    @settings(max_examples=150, deadline=None)
    def test_columnar_close_bit_identical(
        self, params, batch, shuffle, min_count
    ):
        n, m, seed, gap_p = params
        matrix = _build_matrix(n, m, seed, gap_p)
        names = [f"metric-{j}" for j in range(m)]
        quorum = QuorumPolicy(min_fraction=0.0, min_count=min_count)

        def build(cls):
            return cls(
                names, quantiles=QUANTILES, fleet_size=n + 2,
                quorum=quorum,
            )

        legacy = _close(build(ListAggregator), matrix, per_report=True)
        block = _close(
            build(EpochAggregator), matrix, per_report=not batch,
            shuffle_seed=seed if shuffle else None,
        )
        assert_array_equal(block.quantiles, legacy.quantiles)
        assert block.n_machines_reporting == legacy.n_machines_reporting
        assert block.quality == legacy.quality

    def test_below_quorum_epoch_matches(self):
        names = ["a", "b"]
        quorum = QuorumPolicy(min_fraction=0.9, min_count=1)
        for cls in (EpochAggregator, ListAggregator):
            agg = cls(
                names, quantiles=QUANTILES, fleet_size=10,
                quorum=quorum,
            )
            agg.submit(np.array([1.0, 2.0]))
            summary = agg.close_epoch()
            assert np.isnan(summary.quantiles).all()
            assert not summary.quality.quorum_met
            # The block resets: the next epoch starts clean.
            agg.submit_batch(np.tile([3.0, 4.0], (10, 1)))
            nxt = agg.close_epoch()
            assert nxt.quality.quorum_met
            assert_array_equal(nxt.quantiles, [[3.0] * 3, [4.0] * 3])

    def test_dropped_counter_parity(self):
        matrix = np.array([
            [1.0, np.inf, 3.0],
            [np.nan, 5.0, -np.inf],
            [7.0, 8.0, 9.0],
        ])
        results = {}
        for cls in (EpochAggregator, ListAggregator):
            agg = cls(
                ["x", "y", "z"], quantiles=QUANTILES,
                fleet_size=3,
            )
            agg.submit_batch(matrix)
            results[cls] = agg.close_epoch()
        block, ref = results[EpochAggregator], results[ListAggregator]
        assert block.quality.dropped_samples == 3
        assert block.quality == ref.quality
        assert_array_equal(block.quantiles, ref.quantiles)

    def test_block_reuse_across_epochs(self):
        agg = EpochAggregator(["x", "y"], quantiles=QUANTILES, fleet_size=4)
        ref = ListAggregator(["x", "y"], quantiles=QUANTILES, fleet_size=4)
        rng = np.random.default_rng(11)
        for _ in range(5):
            matrix = rng.normal(size=(4, 2))
            matrix[rng.random((4, 2)) < 0.3] = np.nan
            agg.submit_batch(matrix)
            for row in matrix:
                ref.submit(row)
            assert_array_equal(
                agg.close_epoch().quantiles, ref.close_epoch().quantiles
            )


class TestFleetColumnarParity:
    @given(
        _matrix_strategy(max_machines=16),
        st.integers(min_value=1, max_value=4),  # shards
    )
    @settings(max_examples=100, deadline=None)
    def test_sharded_fold_merge_matches_single_process(
        self, params, n_shards
    ):
        n, m, seed, gap_p = params
        matrix = _build_matrix(n, m, seed, gap_p)
        agg = ListAggregator(
            [f"q{j}" for j in range(m)], quantiles=QUANTILES,
            fleet_size=n,
        )
        for row in matrix:
            agg.submit(row)
        reference = agg.close_epoch().quantiles

        partials = []
        for s, chunk in enumerate(np.array_split(matrix, n_shards)):
            folder = ShardFolder(shard_id=s, n_metrics=m)
            if chunk.shape[0]:
                folder.fold(chunk)
            partials.append(folder.close(epoch=0))
        merged = merge_partials(partials, m, QUANTILES)
        assert_array_equal(merged, reference)

    def test_partial_counts_and_sorted_values(self):
        folder = ShardFolder(shard_id=0, n_metrics=2)
        folder.fold(np.array([[3.0, np.nan], [1.0, 5.0], [2.0, np.inf]]))
        partial = folder.close(epoch=7)
        assert partial.n_reports == 3
        assert partial.dropped == 2
        assert_array_equal(partial.counts, [3, 1])
        # Values are each metric's finite multiset, sorted — the merge
        # re-sorts the cross-shard union, so order within a shard is
        # free to change.
        assert_array_equal(partial.values[0], [1.0, 2.0, 3.0])
        assert_array_equal(partial.values[1], [5.0])

    def test_merge_handles_trailing_empty_metric(self):
        # A zero-count metric at the *end* of the flat layout must not
        # index past the concatenated array.
        folder = ShardFolder(shard_id=0, n_metrics=3)
        folder.fold(np.array([[1.0, 2.0, np.nan], [3.0, 4.0, np.nan]]))
        merged = merge_partials([folder.close(epoch=0)], 3, QUANTILES)
        assert_array_equal(merged[0], [1.0, 1.0, 3.0])
        assert_array_equal(merged[1], [2.0, 2.0, 4.0])
        assert np.isnan(merged[2]).all()
