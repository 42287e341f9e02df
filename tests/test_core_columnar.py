"""Unit tests for the columnar epoch-block core.

Parity proofs against the per-machine paths live in
``tests/test_columnar_parity.py``; this file pins the block's own
contracts: capacity growth, reuse across epochs, NaN-mask accounting,
keyed idempotent overwrites, the dict-style mapping facade, and the
window block's view/snapshot semantics.
"""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from repro.core.columnar import EpochBlock, WindowBlock


class TestEpochBlockAnonymous:
    def test_append_masks_and_counts_nonfinite(self):
        block = EpochBlock(4, capacity=2)
        assert block.append(np.array([1.0, np.nan, np.inf, 4.0])) == 2
        assert block.append(np.array([5.0, 6.0, 7.0, 8.0])) == 0
        matrix = block.matrix()
        assert matrix.shape == (2, 4)
        assert_array_equal(matrix[1], [5.0, 6.0, 7.0, 8.0])
        assert matrix[0][0] == 1.0 and matrix[0][3] == 4.0
        assert np.isnan(matrix[0][1]) and np.isnan(matrix[0][2])
        assert_array_equal(block.column_counts(), [2, 1, 1, 2])

    def test_append_batch_matches_scalar_appends(self):
        rng = np.random.default_rng(7)
        reports = rng.normal(size=(50, 6))
        reports[rng.random(reports.shape) < 0.2] = np.nan
        reports[rng.random(reports.shape) < 0.05] = np.inf
        one = EpochBlock(6, capacity=1)
        many = EpochBlock(6, capacity=1)
        dropped_one = sum(one.append(r) for r in reports)
        dropped_many = many.append_batch(reports)
        assert dropped_one == dropped_many
        assert_array_equal(one.matrix(), many.matrix())
        assert_array_equal(one.column_counts(), many.column_counts())

    def test_capacity_doubles_preserving_rows(self):
        block = EpochBlock(2, capacity=1)
        for i in range(9):
            block.append(np.array([float(i), float(-i)]))
        assert block.capacity >= 9
        assert_array_equal(block.matrix()[:, 0], np.arange(9.0))

    def test_reset_reuses_buffer(self):
        block = EpochBlock(3, capacity=4)
        block.append_batch(np.ones((4, 3)))
        buf_before = block._values
        block.reset()
        assert len(block) == 0
        assert block.matrix().shape == (0, 3)
        assert_array_equal(block.column_counts(), [0, 0, 0])
        block.append(np.array([1.0, 2.0, 3.0]))
        assert block._values is buf_before  # no reallocation on reuse

    def test_shape_mismatch_raises(self):
        block = EpochBlock(3)
        with pytest.raises(ValueError):
            block.append(np.ones(4))
        with pytest.raises(ValueError):
            block.append_batch(np.ones((2, 2)))

    def test_empty_batch_is_a_noop(self):
        block = EpochBlock(3)
        assert block.append_batch(np.empty((0, 3))) == 0
        assert len(block) == 0


class TestEpochBlockKeyed:
    def test_put_and_mapping_facade(self):
        block = EpochBlock(2)
        block.put("m1", [1.0, 2.0], violation=True)
        block.put("m0", [3.0, 4.0])
        assert len(block) == 2
        assert "m1" in block and "m0" in block and "m9" not in block
        assert sorted(block) == ["m0", "m1"]
        assert block["m1"] == ([1.0, 2.0], True)
        assert block["m0"] == ([3.0, 4.0], False)
        assert dict(block.items()) == {
            "m1": ([1.0, 2.0], True),
            "m0": ([3.0, 4.0], False),
        }
        with pytest.raises(KeyError):
            block["missing"]

    def test_put_overwrites_idempotently(self):
        block = EpochBlock(2)
        block.put("m0", [1.0, 1.0], violation=True)
        block.put("m0", [2.0, 2.0], violation=False)
        assert len(block) == 1
        assert block["m0"] == ([2.0, 2.0], False)

    def test_values_stored_verbatim(self):
        # Keyed rows do NOT NaN-mask on put: the tenant's close drops and
        # counts non-finite entries, under the collector's rule.
        block = EpochBlock(3)
        block.put("m0", [np.nan, np.inf, 1.5])
        values, violation = block["m0"]
        assert np.isnan(values[0]) and np.isposinf(values[1])
        assert values[2] == 1.5 and violation is False

    def test_put_batch_matches_scalar_puts(self):
        rng = np.random.default_rng(3)
        machines = [f"m{i}" for i in range(20)]
        matrix = rng.normal(size=(20, 4))
        violations = [i % 3 == 0 for i in range(20)]
        one = EpochBlock(4)
        many = EpochBlock(4)
        for m, row, v in zip(machines, matrix, violations):
            one.put(m, row, v)
        many.put_batch(machines, matrix, violations)
        v_one, f_one = one.gather()
        v_many, f_many = many.gather()
        assert_array_equal(v_one, v_many)
        assert_array_equal(f_one, f_many)
        assert one.machines() == many.machines()

    def test_reset_keeps_interning_and_clears_presence(self):
        block = EpochBlock(2)
        block.put("a", [1.0, 2.0])
        block.put("b", [3.0, 4.0], violation=True)
        block.clear()  # dict-compatible alias
        assert len(block) == 0
        assert "a" not in block
        assert block.machines() == []
        # Rows are reused for the machine's reports in later epochs.
        block.put("b", [9.0, 9.0])
        assert block.machines() == ["b"]
        assert block["b"] == ([9.0, 9.0], False)

    def test_gather_only_present_rows(self):
        block = EpochBlock(2)
        block.put("a", [1.0, 2.0])
        block.put("b", [3.0, 4.0], violation=True)
        block.clear()
        block.put("b", [5.0, 6.0])
        values, violations = block.gather()
        assert_array_equal(values, [[5.0, 6.0]])
        assert_array_equal(violations, [False])

    def test_batch_shape_mismatches_raise(self):
        block = EpochBlock(2)
        with pytest.raises(ValueError):
            block.put_batch(["a"], np.ones((2, 2)), [False, False])
        with pytest.raises(ValueError):
            block.put_batch(["a", "b"], np.ones((2, 2)), [False])


class TestWindowBlock:
    def test_append_view_snapshot(self):
        block = WindowBlock(3, 2, capacity=1)
        rows = [np.full((3, 2), float(i)) for i in range(5)]
        for row in rows:
            block.append(row)
        assert len(block) == 5
        view = block.view()
        assert view.base is not None  # a view, not a copy
        assert_array_equal(view, np.stack(rows))
        snap = block.snapshot()
        assert snap.base is None
        assert_array_equal(snap, view)
        # np.stack over the block works (sequence protocol) — what the
        # pre-columnar call sites did with the list of arrays.
        assert_array_equal(np.stack(block), view)
        assert_array_equal(block[0], rows[0])

    def test_from_rows_and_from_array_round_trip(self):
        rows = [np.arange(6.0).reshape(3, 2) + i for i in range(4)]
        a = WindowBlock.from_rows(rows)
        b = WindowBlock.from_array(np.stack(rows))
        assert_array_equal(a.view(), b.view())

    def test_shape_mismatch_raises(self):
        block = WindowBlock(3, 2)
        with pytest.raises(ValueError):
            block.append(np.ones((2, 2)))
        with pytest.raises(ValueError):
            WindowBlock.from_rows([])
