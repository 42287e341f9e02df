"""Datacenter-wide quantile summaries of per-machine metrics.

The fingerprinting method's first step (Section 3.2 of the paper) replaces
per-machine metric values with a handful of quantiles computed across all
machines in the datacenter, so the representation scales with the number of
metrics rather than the number of machines.  This module provides the exact
computation used when the fleet is small enough to see every sample (the
paper computed quantiles exactly for several hundred machines); streaming
sketches for larger fleets live in :mod:`repro.telemetry.sketches`.

The empirical quantile convention follows the paper: the p-th quantile of N
ordered samples is the ``ceil(N * p)``-th order statistic (1-based), i.e. the
smallest observed value x such that at least a fraction p of samples are <= x.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def empirical_quantiles(values: np.ndarray, quantiles: Sequence[float]) -> np.ndarray:
    """Exact empirical quantiles of a 1-D sample.

    Uses the order-statistic definition from Section 3.2 of the paper
    (``N*p``-th ordered value) rather than interpolation, so results are
    always actual observed values.  Non-finite samples (NaN from machines
    that failed to report, ±inf from garbage counters) are dropped; a
    sample with no finite value raises ValueError.
    """
    for q in quantiles:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
    column = np.asarray(values, dtype=float).reshape(-1, 1)
    if not np.isfinite(column).any():
        raise ValueError("cannot take quantiles of an empty sample")
    return summarize_epoch(column, quantiles)[0]


def quantile_ranks(
    counts: "int | np.ndarray", quantiles: Sequence[float]
) -> np.ndarray:
    """0-based order-statistic indices for the paper's quantile rule.

    The p-th quantile of ``n`` ordered samples is the ``ceil(n * p)``-th
    order statistic (1-based), clipped to ``[1, n]``.  ``counts`` is one
    sample count, giving a ``(n_quantiles,)`` index vector, or an array
    of per-metric counts, giving ``(n_metrics, n_quantiles)``.  A zero
    count gives index 0; callers mask metrics nobody observed.

    This is the one vectorized form of the rule: :func:`masked_quantiles`
    (and so :func:`summarize_epoch`), :func:`summarize_chunk` and the
    fleet coordinator's partial merge all take their ranks from it, so
    they are bit-identical by construction.
    """
    counts = np.asarray(counts)
    qs = np.asarray(quantiles, dtype=float)
    ranks = np.ceil(counts[..., None] * qs).astype(int)
    return np.clip(ranks, 1, np.maximum(counts, 1)[..., None]) - 1


def summarize_epoch(
    samples: np.ndarray, quantiles: Sequence[float]
) -> np.ndarray:
    """Summarize one epoch of per-machine samples into quantiles per metric.

    Each metric's quantiles are taken over its finite samples only: a NaN
    (a machine that did not report the metric) or ±inf (a garbage
    counter) is a missing sample, dropped for that metric alone, and a
    metric with no finite sample comes back NaN.  This is the collector's
    rule, computed by the same kernel (:func:`masked_quantiles`).

    Parameters
    ----------
    samples:
        Array of shape ``(n_machines, n_metrics)`` with this epoch's values.
    quantiles:
        Quantile levels in [0, 1].

    Returns
    -------
    Array of shape ``(n_metrics, n_quantiles)``.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2:
        raise ValueError("samples must be (n_machines, n_metrics)")
    if samples.shape[0] == 0:
        raise ValueError("need at least one machine")
    finite = np.isfinite(samples)
    counts = finite.sum(axis=0)
    # A column-major copy, so the in-place sort runs down contiguous
    # columns; the caller's array is never touched.
    masked = np.array(samples, order="F")
    if counts.sum() < samples.size:
        masked[~finite] = np.nan
    return masked_quantiles(masked, quantiles, counts=counts, overwrite=True)


def masked_quantiles(
    samples: np.ndarray,
    quantiles: Sequence[float],
    counts: "np.ndarray | None" = None,
    overwrite: bool = False,
) -> np.ndarray:
    """NaN-aware per-metric quantiles of one epoch in single numpy passes.

    The one order-statistic kernel for an epoch's machines × metrics
    matrix: the collector's aggregator and the serving tenant (through
    :func:`summarize_epoch`) both close an epoch here.  Each metric's
    quantiles are taken over its *observed* (non-NaN) samples only,
    using the paper's ``ceil(n*p)`` order-statistic rule.  Metrics with
    zero observations yield NaN.

    One sort (NaN sorts last) plus one rank gather.  Callers must
    pre-mask ``±inf`` to NaN, as every ingestion path does (the epoch
    block on ingest, :func:`summarize_epoch` on its copy): infinities
    are not counted as observations but would otherwise occupy sort
    slots ahead of the NaN tail.

    Parameters
    ----------
    samples:
        Array of shape ``(n_machines, n_metrics)``, NaN marking gaps.
    counts:
        Optional precomputed finite observations per metric (the epoch
        block tracks them incrementally on ingest); skips the
        ``isfinite`` pass.  Must equal what that pass would count.
    overwrite:
        Sort ``samples`` in place instead of copying — for callers that
        discard the buffer right after (the block is reset per epoch).
        Requires a writable float64 array.

    Returns
    -------
    Array of shape ``(n_metrics, n_quantiles)``.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2:
        raise ValueError("samples must be (n_machines, n_metrics)")
    n_machines, n_metrics = samples.shape
    if counts is None:
        counts = np.isfinite(samples).sum(axis=0)
    if overwrite:
        samples.sort(axis=0)  # NaNs sort to the bottom rows
        ordered = samples
    else:
        ordered = np.sort(samples, axis=0)
    if (counts == n_machines).all():
        # No gaps: one rank vector serves every metric.  The gather is a
        # fresh (n_quantiles, n_metrics) array; .T is a view of it.
        return ordered[quantile_ranks(n_machines, quantiles), :].T
    ranks = quantile_ranks(counts, quantiles)
    out = ordered[ranks, np.arange(n_metrics)[:, None]]
    out[counts == 0] = np.nan
    return out


def summarize_chunk(
    samples: np.ndarray, quantiles: Sequence[float]
) -> np.ndarray:
    """Vectorized :func:`summarize_epoch` over a chunk of epochs.

    Parameters
    ----------
    samples:
        Array of shape ``(n_epochs, n_machines, n_metrics)``.

    Returns
    -------
    Array of shape ``(n_epochs, n_metrics, n_quantiles)``.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 3:
        raise ValueError("samples must be (n_epochs, n_machines, n_metrics)")
    n_epochs, n_machines, _ = samples.shape
    if n_machines == 0:
        raise ValueError("need at least one machine")
    ordered = np.sort(samples, axis=1)
    ranks = quantile_ranks(n_machines, quantiles)
    # ordered[:, ranks, :] is a fresh (n_epochs, n_quantiles, n_metrics)
    # gather; transpose is a view of it, so no copy is needed.
    return np.transpose(ordered[:, ranks, :], (0, 2, 1))


__all__ = [
    "empirical_quantiles",
    "masked_quantiles",
    "quantile_ranks",
    "summarize_epoch",
    "summarize_chunk",
]
