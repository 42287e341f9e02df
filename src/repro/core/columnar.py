"""Columnar epoch blocks: the preallocated ndarray ingestion core.

Every ingestion layer used to funnel per-machine reports through Python
dicts and lists (``List[np.ndarray]`` in the collector, ``Dict[str,
Tuple[List[float], bool]]`` in the serving tenant, per-metric list
comprehensions in the fleet folder) before anything was vectorized.  At
millions of samples per epoch that interpreted bookkeeping *is* the hot
path — the fleet tier merely parallelized it.  This module provides the
shared columnar core those layers now fill and consume:

* :class:`EpochBlock` — a preallocated ``(machine, metric)`` float64
  value matrix plus an SLA-violation bitmap and a machine-id interning
  table.  The block is reused across epochs (``reset()`` clears the
  occupancy bookkeeping without touching the buffers), grows by
  doubling, and supports two filling styles:

  - *anonymous rows* (:meth:`EpochBlock.append` /
    :meth:`EpochBlock.append_batch`) for aggregation paths that never
    see machine identities — the collector and the fleet shard folder.
    Non-finite entries are NaN-masked and counted exactly like the
    scalar submit path, and per-metric finite counts accumulate as a
    side effect of the same vectorized pass.
  - *keyed rows* (:meth:`EpochBlock.put` / :meth:`EpochBlock.put_batch`)
    for the serving tenant's pending-epoch buffer, where a re-delivered
    report must overwrite its machine's row idempotently.  Machine ids
    are interned once; rows are reused for the machine's reports in
    every later epoch.  A row keeps what was sent; the tenant's close
    drops and counts its non-finite entries under the same rule as
    anonymous rows (:func:`repro.telemetry.quantiles.summarize_epoch`
    and :func:`repro.telemetry.collector.is_report`).  The keyed
    surface is a read-only mapping (``len`` / ``in`` / iteration over
    present machine ids / ``block[machine]``), so call sites that
    treated the pending buffer as a dict keep working unchanged.

* :class:`WindowBlock` — a preallocated ``(epoch, metric, quantile)``
  rolling window whose :meth:`WindowBlock.view` hands the fingerprint
  kernels a *view* over the filled prefix instead of re-stacking a list
  of per-epoch arrays every identification epoch.

The columnar paths are pinned bit-identical to the per-machine paths
they replace by ``tests/test_columnar_parity.py`` (including NaN
semantics, quorum gating, and idempotent duplicate reports); the
speedup is measured by ``benchmarks/test_columnar_ingest.py``.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: Rows a fresh block preallocates; grows by doubling beyond this.
DEFAULT_CAPACITY = 64


class EpochBlock:
    """Preallocated ``(machine, metric)`` report block, reused per epoch.

    One block instance serves one filling style at a time — anonymous
    rows (aggregators) or keyed rows (the tenant's pending buffer); the
    two styles share the buffers but not their row bookkeeping.
    """

    def __init__(self, n_metrics: int, capacity: int = DEFAULT_CAPACITY):
        if n_metrics < 1:
            raise ValueError("need at least one metric")
        self.n_metrics = int(n_metrics)
        capacity = max(int(capacity), 1)
        # Column-major: the close-path kernels sort each metric's
        # column, and sorting a contiguous column is ~2x faster than a
        # strided one at fleet scale (per-row writes on ingest pay a
        # negligible strided-copy cost in exchange).
        self._values = np.empty(
            (capacity, self.n_metrics), dtype=np.float64, order="F"
        )
        self._violations = np.zeros(capacity, dtype=bool)
        self._present = np.zeros(capacity, dtype=bool)
        self._ids: List[str] = []  # row -> machine id (interning table)
        self._rows: Dict[str, int] = {}  # machine id -> row
        self._n_rows = 0  # anonymous rows filled this epoch
        self._n_present = 0  # keyed rows present this epoch
        self._col_counts = np.zeros(self.n_metrics, dtype=np.int64)

    # -- capacity ----------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._values.shape[0]

    def _ensure(self, n_rows: int) -> None:
        cap = self.capacity
        if n_rows <= cap:
            return
        while cap < n_rows:
            cap *= 2
        values = np.empty(
            (cap, self.n_metrics), dtype=np.float64, order="F"
        )
        values[: self._values.shape[0]] = self._values
        violations = np.zeros(cap, dtype=bool)
        violations[: self._violations.shape[0]] = self._violations
        present = np.zeros(cap, dtype=bool)
        present[: self._present.shape[0]] = self._present
        self._values = values
        self._violations = violations
        self._present = present

    # -- anonymous rows (aggregation paths) --------------------------------

    def append(self, report: np.ndarray) -> int:
        """Fill one anonymous row; returns the non-finite entries dropped.

        Non-finite values are stored as NaN and counted, mirroring the
        scalar ``EpochAggregator.submit`` contract (``inf`` is dropped
        and counted, never summarized).
        """
        report = np.asarray(report, dtype=np.float64)
        if report.shape != (self.n_metrics,):
            raise ValueError("report length mismatch")
        self._ensure(self._n_rows + 1)
        finite = np.isfinite(report)
        row = self._values[self._n_rows]
        np.copyto(row, report)
        dropped = int(report.size - int(finite.sum()))
        if dropped:
            row[~finite] = np.nan
        self._col_counts += finite
        self._n_rows += 1
        return dropped

    def append_batch(self, matrix: np.ndarray) -> int:
        """Fill many anonymous rows in one vectorized pass.

        Returns the total non-finite entries dropped (NaN-masked in
        place), identical to calling :meth:`append` per row.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != self.n_metrics:
            raise ValueError(
                f"batch must be (n, {self.n_metrics}), got {matrix.shape}"
            )
        n = matrix.shape[0]
        if n == 0:
            return 0
        self._ensure(self._n_rows + n)
        finite = np.isfinite(matrix)
        dest = self._values[self._n_rows : self._n_rows + n]
        np.copyto(dest, matrix)
        per_metric = finite.sum(axis=0)
        dropped = int(matrix.size - int(per_metric.sum()))
        if dropped:
            dest[~finite] = np.nan
        self._col_counts += per_metric
        self._n_rows += n
        return dropped

    def matrix(self) -> np.ndarray:
        """View of the filled anonymous rows — no copy."""
        return self._values[: self._n_rows]

    def column_counts(self) -> np.ndarray:
        """Finite observations per metric across the anonymous rows."""
        return self._col_counts.copy()

    # -- keyed rows (the tenant's pending-epoch buffer) ---------------------

    def _row_for(self, machine: str) -> int:
        row = self._rows.get(machine)
        if row is None:
            row = len(self._ids)
            self._ensure(row + 1)
            self._ids.append(machine)
            self._rows[machine] = row
        return row

    def put(
        self, machine: str, values: Sequence[float], violation: bool = False
    ) -> None:
        """Set one machine's row for this epoch (idempotent overwrite).

        Non-finite values are kept as sent; the tenant's close drops and
        counts them (see the module docstring).
        """
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.n_metrics,):
            raise ValueError("report length mismatch")
        row = self._row_for(machine)
        np.copyto(self._values[row], values)
        self._violations[row] = bool(violation)
        if not self._present[row]:
            self._present[row] = True
            self._n_present += 1

    def put_batch(
        self,
        machines: Sequence[str],
        matrix: np.ndarray,
        violations: Sequence[bool],
    ) -> None:
        """Set many machines' rows in one vectorized pass.

        ``machines`` must not repeat within one batch (the wire layer
        enforces this), so the fancy-index assignment is well defined.
        Only the id-interning lookups remain per-machine Python work;
        the value and violation stores are single ndarray writes.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        n = len(machines)
        if matrix.shape != (n, self.n_metrics):
            raise ValueError(
                f"batch must be ({n}, {self.n_metrics}), got {matrix.shape}"
            )
        if len(violations) != n:
            raise ValueError("violation count mismatch")
        rows = np.empty(n, dtype=np.intp)
        row_for = self._row_for
        for i, machine in enumerate(machines):
            rows[i] = row_for(machine)
        self._values[rows] = matrix
        self._violations[rows] = np.asarray(violations, dtype=bool)
        newly = int(n - int(self._present[rows].sum()))
        if newly:
            self._present[rows] = True
            self._n_present += newly

    def machines(self) -> List[str]:
        """Present machine ids, in interning (first-ever-seen) order."""
        ids = self._ids
        return [ids[r] for r in np.flatnonzero(self._present[: len(ids)])]

    def gather(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(values, violations)`` of the present rows, one gather each."""
        rows = np.flatnonzero(self._present[: len(self._ids)])
        return self._values[rows], self._violations[rows]

    def items(self) -> Iterator[Tuple[str, Tuple[List[float], bool]]]:
        """``(machine, (values, violation))`` pairs of the present rows."""
        for machine in self.machines():
            yield machine, self[machine]

    # -- mapping facade (keyed style) ---------------------------------------

    def __len__(self) -> int:
        return self._n_rows + self._n_present

    def __contains__(self, machine: object) -> bool:
        row = self._rows.get(machine)  # type: ignore[arg-type]
        return row is not None and bool(self._present[row])

    def __iter__(self) -> Iterator[str]:
        return iter(self.machines())

    def __getitem__(self, machine: str) -> Tuple[List[float], bool]:
        row = self._rows.get(machine)
        if row is None or not self._present[row]:
            raise KeyError(machine)
        return self._values[row].tolist(), bool(self._violations[row])

    # -- per-epoch lifecycle ------------------------------------------------

    def reset(self) -> None:
        """Start a new epoch: clear occupancy, keep buffers + interning."""
        if self._n_present:
            self._present[: len(self._ids)] = False
            self._n_present = 0
        self._n_rows = 0
        self._col_counts[:] = 0

    #: Dict-compatible alias so ``pending.clear()`` call sites survive.
    clear = reset


class WindowBlock:
    """Preallocated ``(epoch, metric, quantile)`` rolling window.

    Replaces the ``List[np.ndarray]`` + ``np.stack`` pattern on the
    streaming monitor's live-crisis window: epochs are appended into a
    preallocated buffer and the fingerprint kernels consume
    :meth:`view` — a slice of the buffer, not a fresh stack — every
    identification epoch.
    """

    def __init__(self, n_metrics: int, n_quantiles: int, capacity: int = 8):
        if n_metrics < 1 or n_quantiles < 1:
            raise ValueError("need at least one metric and one quantile")
        self.n_metrics = int(n_metrics)
        self.n_quantiles = int(n_quantiles)
        capacity = max(int(capacity), 1)
        self._buf = np.empty(
            (capacity, self.n_metrics, self.n_quantiles), dtype=np.float64
        )
        self._n = 0

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[np.ndarray],
        capacity: Optional[int] = None,
    ) -> "WindowBlock":
        """Build a window from per-epoch ``(metric, quantile)`` arrays."""
        if not rows:
            raise ValueError("need at least one epoch")
        first = np.asarray(rows[0], dtype=np.float64)
        if first.ndim != 2:
            raise ValueError("epochs must be (n_metrics, n_quantiles)")
        block = cls(
            first.shape[0], first.shape[1],
            capacity=max(len(rows), capacity or 0, 1),
        )
        for row in rows:
            block.append(row)
        return block

    @classmethod
    def from_array(
        cls, window: np.ndarray, capacity: Optional[int] = None
    ) -> "WindowBlock":
        """Build a window from a stacked ``(w, metric, quantile)`` array."""
        window = np.asarray(window, dtype=np.float64)
        if window.ndim != 3:
            raise ValueError("window must be (w, n_metrics, n_quantiles)")
        block = cls(
            window.shape[1], window.shape[2],
            capacity=max(window.shape[0], capacity or 0, 1),
        )
        block._buf[: window.shape[0]] = window
        block._n = window.shape[0]
        return block

    def append(self, epoch_quantiles: np.ndarray) -> None:
        epoch_quantiles = np.asarray(epoch_quantiles, dtype=np.float64)
        if epoch_quantiles.shape != (self.n_metrics, self.n_quantiles):
            raise ValueError(
                f"epoch must be ({self.n_metrics}, {self.n_quantiles}), "
                f"got {epoch_quantiles.shape}"
            )
        if self._n == self._buf.shape[0]:
            grown = np.empty(
                (self._buf.shape[0] * 2, self.n_metrics, self.n_quantiles),
                dtype=np.float64,
            )
            grown[: self._n] = self._buf[: self._n]
            self._buf = grown
        self._buf[self._n] = epoch_quantiles
        self._n += 1

    def view(self) -> np.ndarray:
        """The filled window as a view — no copy, do not mutate."""
        return self._buf[: self._n]

    def snapshot(self) -> np.ndarray:
        """The filled window as an owned copy (for long-term storage)."""
        return self._buf[: self._n].copy()

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[np.ndarray]:
        """Per-epoch ``(n_metrics, n_quantiles)`` views, oldest first."""
        return iter(self._buf[: self._n])

    def __getitem__(self, index):
        """Sequence-style access to the filled epochs (views)."""
        return self._buf[: self._n][index]


__all__ = ["DEFAULT_CAPACITY", "EpochBlock", "WindowBlock"]
