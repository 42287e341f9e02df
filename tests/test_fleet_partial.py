"""ShardFolder / merge_partials: the pure aggregation core of the fleet.

These tests pin the semantics the worker pool merely transports: folding
chunks and merging partials must reproduce the single-process
``summarize_epoch`` reduction (exactly in exact mode, within the sketch
bound otherwise), however the reports are split across shards and chunks.
"""

import numpy as np
import pytest

from repro.fleet.partial import ShardFolder, merge_partials
from repro.telemetry.quantiles import summarize_epoch
from tests.test_columnar_parity import list_quantiles

QUANTILES = (0.25, 0.50, 0.95)


def fold_split(matrix, n_shards, mode="exact", chunk=7, sketch_eps=0.02):
    """Deal rows round-robin over n_shards folders; return closed partials."""
    n_metrics = matrix.shape[1]
    folders = [
        ShardFolder(s, n_metrics, mode=mode, sketch_eps=sketch_eps)
        for s in range(n_shards)
    ]
    for s in range(n_shards):
        rows = matrix[s::n_shards]
        for start in range(0, rows.shape[0], chunk):
            part = rows[start : start + chunk]
            if part.shape[0]:
                folders[s].fold(part)
    return [f.close(epoch=0) for f in folders]


class TestExactMode:
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 5])
    def test_matches_summarize_epoch(self, n_shards):
        rng = np.random.default_rng(42)
        matrix = rng.normal(size=(101, 4))
        partials = fold_split(matrix, n_shards)
        merged = merge_partials(partials, 4, QUANTILES)
        np.testing.assert_array_equal(
            merged, summarize_epoch(matrix, QUANTILES)
        )

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_matches_nan_aware_collector_path(self, n_shards):
        # With gaps, the single-process reference is the list oracle's
        # NaN-aware per-metric order statistics.
        rng = np.random.default_rng(43)
        matrix = rng.normal(size=(97, 4))
        matrix[rng.random(matrix.shape) < 0.08] = np.nan
        partials = fold_split(matrix, n_shards)
        merged = merge_partials(partials, 4, QUANTILES)
        np.testing.assert_array_equal(
            merged, list_quantiles(matrix, QUANTILES)
        )

    def test_counts_and_drops(self):
        matrix = np.array(
            [[1.0, np.nan], [2.0, np.inf], [np.nan, 3.0]]
        )
        folder = ShardFolder(0, 2)
        folder.fold(matrix)
        partial = folder.close(epoch=5)
        assert partial.epoch == 5
        assert partial.n_reports == 3
        assert partial.dropped == 3  # one NaN, one inf, one NaN
        np.testing.assert_array_equal(partial.counts, [2, 1])
        np.testing.assert_array_equal(np.sort(partial.values[0]), [1.0, 2.0])
        np.testing.assert_array_equal(partial.values[1], [3.0])

    def test_inf_dropped_like_single_process(self):
        # EpochAggregator.submit NaNs out non-finite entries; the folder
        # must treat inf identically so parity holds on dirty data.
        matrix = np.array([[np.inf, 1.0], [2.0, -np.inf], [4.0, 8.0]])
        merged = merge_partials(fold_split(matrix, 2), 2, (0.5,))
        clean = np.where(np.isfinite(matrix), matrix, np.nan)
        np.testing.assert_array_equal(
            merged, list_quantiles(clean, (0.5,))
        )

    def test_empty_metric_is_nan(self):
        matrix = np.array([[1.0, np.nan], [2.0, np.nan]])
        merged = merge_partials(fold_split(matrix, 1), 2, QUANTILES)
        assert np.all(np.isfinite(merged[0]))
        assert np.all(np.isnan(merged[1]))

    def test_no_partials_is_all_nan(self):
        merged = merge_partials([], 3, QUANTILES)
        assert merged.shape == (3, 3)
        assert np.all(np.isnan(merged))

    def test_folder_resets_between_epochs(self):
        folder = ShardFolder(0, 1)
        folder.fold(np.array([[1.0], [2.0]]))
        first = folder.close(epoch=0)
        second = folder.close(epoch=1)
        assert first.n_reports == 2
        assert second.n_reports == 0
        assert second.values[0].size == 0


class TestSketchMode:
    def test_within_eps_of_exact(self):
        rng = np.random.default_rng(1)
        eps = 0.02
        matrix = rng.lognormal(size=(4000, 3))
        partials = fold_split(matrix, 4, mode="sketch", chunk=257,
                              sketch_eps=eps)
        merged = merge_partials(partials, 3, QUANTILES)
        n = matrix.shape[0]
        for j in range(3):
            col = np.sort(matrix[:, j])
            for k, q in enumerate(QUANTILES):
                # Rank distance between the sketch's answer and the target
                # rank must stay within the merged bound (4 shards of the
                # same eps still give eps overall; see test_sketch_merge).
                rank = np.searchsorted(col, merged[j, k], side="right")
                target = int(np.ceil(q * n))
                assert abs(rank - target) <= 2 * eps * n + 1

    def test_partial_size_independent_of_shard_size(self):
        rng = np.random.default_rng(2)
        small = fold_split(rng.normal(size=(500, 1)), 1, mode="sketch")[0]
        large = fold_split(rng.normal(size=(20_000, 1)), 1, mode="sketch")[0]
        # The paper's property applied to the collection tier: the wire
        # partial is O(1/eps), not O(machines).
        assert large.sketches[0].size < 4 * small.sketches[0].size
        assert large.sketches[0].size < 600

    def test_mixed_modes_rejected(self):
        exact = fold_split(np.ones((4, 1)), 1, mode="exact")
        sketch = fold_split(np.ones((4, 1)), 1, mode="sketch")
        with pytest.raises(ValueError):
            merge_partials([exact[0], sketch[0]], 1, QUANTILES)


class TestValidation:
    def test_bad_mode(self):
        with pytest.raises(ValueError):
            ShardFolder(0, 2, mode="approximate")

    def test_bad_chunk_shape(self):
        folder = ShardFolder(0, 3)
        with pytest.raises(ValueError):
            folder.fold(np.ones((4, 2)))
        with pytest.raises(ValueError):
            folder.fold(np.ones(3))

    def test_fold_seconds_recorded(self):
        folder = ShardFolder(0, 2)
        folder.fold(np.ones((100, 2)))
        assert folder.close(epoch=0).fold_seconds > 0.0
