"""Epoch and crisis fingerprints (Sections 3.4-3.5).

An *epoch fingerprint* is the summary vector restricted to the relevant
metrics.  A *crisis fingerprint* averages the epoch fingerprints over a
window anchored at the crisis detection epoch (-30 min ... +60 min in the
paper), giving a vector in ``[-1, 1]^(3R)`` for R relevant metrics.  During
online identification the window grows epoch by epoch, so partial crisis
fingerprints use however many epochs are available so far.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.config import FingerprintConfig
from repro.core.engine import fingerprint_from_window
from repro.core.thresholds import QuantileThresholds


@dataclass(frozen=True)
class CrisisFingerprint:
    """A crisis fingerprint plus its provenance."""

    vector: np.ndarray  # (n_relevant * n_quantiles,)
    metric_indices: np.ndarray  # the relevant metrics used
    label: Optional[str] = None  # operator label; None when undiagnosed
    crisis_id: Optional[int] = None
    n_epochs: int = 0  # epochs averaged into the vector

    def __post_init__(self) -> None:
        if self.vector.ndim != 1:
            raise ValueError("fingerprint vector must be 1-D")
        if np.any(np.abs(self.vector) > 1.0 + 1e-9):
            raise ValueError("fingerprint entries must lie in [-1, 1]")


def crisis_fingerprint(
    quantiles: np.ndarray,
    thresholds: QuantileThresholds,
    metric_indices: np.ndarray,
    detection_epoch: int,
    config: FingerprintConfig = FingerprintConfig(),
    end_epoch: Optional[int] = None,
    label: Optional[str] = None,
    crisis_id: Optional[int] = None,
) -> CrisisFingerprint:
    """Average epoch fingerprints over the crisis summary window.

    The window is ``[detection - pre_epochs, detection + post_epochs]``
    inclusive (:meth:`~repro.config.FingerprintConfig.window`), clipped to
    the trace and, for online partial fingerprints, to ``end_epoch`` (the
    most recent epoch whose data has arrived).  The mean is taken by
    :func:`~repro.core.engine.fingerprint_from_window`, the kernel every
    plane shares.
    """
    quantiles = np.asarray(quantiles, dtype=float)
    if quantiles.ndim != 3:
        raise ValueError("quantiles must be 3-D")
    span = config.window(detection_epoch, quantiles.shape[0])
    stop = span.stop if end_epoch is None else min(span.stop, end_epoch + 1)
    if stop <= span.start:
        raise ValueError("empty fingerprint window")
    vector = fingerprint_from_window(
        quantiles[span.start : stop], thresholds, metric_indices
    )
    return CrisisFingerprint(
        vector=vector,
        metric_indices=np.asarray(metric_indices, dtype=int),
        label=label,
        crisis_id=crisis_id,
        n_epochs=stop - span.start,
    )


__all__ = ["CrisisFingerprint", "crisis_fingerprint"]
