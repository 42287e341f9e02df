"""Crisis identification: thresholds, matching, and stability (Sections 4.3, 5.3).

Identification runs once per epoch for five epochs after detection.  Each
attempt either emits the label of the nearest known crisis (when its
fingerprint distance is under the identification threshold) or the special
``UNKNOWN`` symbol.  A sequence is *stable* when it consists of zero or more
``UNKNOWN``s followed by zero or more repetitions of one label; unstable
sequences are operationally useless and count as identification failures.

The identification threshold is estimated from past crises:

* offline — the largest threshold whose false-alarm rate on the full
  distance ROC stays under alpha (:meth:`repro.ml.roc.ROCCurve.threshold_at_alpha`);
* online — the adaptive rules of Section 5.3, handling the cold-start cases
  where only same-type or only distinct-type pairs have been seen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.similarity import l2_distance, pair_arrays, pairwise_distances
from repro.ml.roc import roc_curve

#: The "don't know" identification output (the paper's ``x``).
UNKNOWN = "x"


def threshold_from_pairs(
    pair_d: np.ndarray, is_same: np.ndarray, alpha: float
) -> float:
    """Section 5.3's rules, given precomputed pair distances.

    * only same-type pairs seen: ``T = max_d * (1 + alpha)``;
    * only distinct-type pairs seen: ``T = min_d * (1 - alpha)``;
    * both, separable (``max_same < min_diff``):
      ``T = max_same + alpha * (min_diff - max_same)``;
    * both, not separable: the ROC-based threshold at false-alarm rate
      alpha, as in the offline setting.
    """
    pair_d = np.asarray(pair_d, dtype=float).ravel()
    is_same = np.asarray(is_same, dtype=bool).ravel()
    if pair_d.shape != is_same.shape or pair_d.size == 0:
        raise ValueError("invalid pair arrays")
    has_same = bool(is_same.any())
    has_diff = bool((~is_same).any())
    if has_same and not has_diff:
        return float(pair_d.max() * (1.0 + alpha))
    if has_diff and not has_same:
        return float(pair_d.min() * (1.0 - alpha))

    max_same = float(pair_d[is_same].max())
    min_diff = float(pair_d[~is_same].min())
    if max_same < min_diff:
        return max_same + alpha * (min_diff - max_same)
    return roc_curve(pair_d, is_same).threshold_at_alpha(alpha)


def estimate_threshold_online(
    vectors: Sequence[np.ndarray],
    labels: Sequence[str],
    alpha: float,
) -> float:
    """Section 5.3's rules from the fingerprints of all past crises."""
    if len(vectors) != len(labels):
        raise ValueError("vectors/labels length mismatch")
    if len(vectors) < 2:
        raise ValueError("need at least two past crises")
    dist = pairwise_distances(list(vectors))
    pair_d, is_same = pair_arrays(dist, list(labels))
    return threshold_from_pairs(pair_d, is_same, alpha)


@dataclass(frozen=True)
class IdentificationResult:
    """One identification attempt."""

    label: str  # a crisis label, or UNKNOWN
    nearest_label: Optional[str]
    distance: Optional[float]
    threshold: Optional[float]  # None when no T_id could be estimated

    @property
    def matched(self) -> bool:
        return self.label != UNKNOWN


class Identifier:
    """Matches a (partial) crisis fingerprint against known crises."""

    def __init__(self, threshold: float):
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        self.threshold = threshold

    def identify(
        self,
        vector: np.ndarray,
        library: Sequence[Tuple[np.ndarray, str]],
    ) -> IdentificationResult:
        """Nearest-neighbor identification with an unknown cutoff.

        ``library`` holds ``(fingerprint_vector, label)`` pairs of past
        diagnosed crises.
        """
        if not library:
            return IdentificationResult(
                label=UNKNOWN, nearest_label=None, distance=None,
                threshold=self.threshold,
            )
        distances = np.array(
            [l2_distance(vector, fp) for fp, _ in library]
        )
        best = int(np.argmin(distances))
        nearest_label = library[best][1]
        best_d = float(distances[best])
        label = nearest_label if best_d < self.threshold else UNKNOWN
        return IdentificationResult(
            label=label,
            nearest_label=nearest_label,
            distance=best_d,
            threshold=self.threshold,
        )


def is_stable(sequence: Sequence[str]) -> bool:
    """True for sequences of the form ``x* L*`` (one consistent label)."""
    seen_label: Optional[str] = None
    for s in sequence:
        if s == UNKNOWN:
            if seen_label is not None:
                return False  # label followed by an x
        else:
            if seen_label is None:
                seen_label = s
            elif s != seen_label:
                return False  # two different labels
    return True


def sequence_label(sequence: Sequence[str]) -> Optional[str]:
    """The label a stable sequence settles on (None if all-unknown).

    Raises ValueError on unstable sequences — callers must check
    :func:`is_stable` first, since an unstable sequence has no meaningful
    label.
    """
    if not is_stable(sequence):
        raise ValueError("sequence is unstable")
    for s in sequence:
        if s != UNKNOWN:
            return s
    return None


def first_correct_epoch(
    sequence: Sequence[str], true_label: str
) -> Optional[int]:
    """Index of the first epoch emitting the correct label, else None."""
    for i, s in enumerate(sequence):
        if s == true_label:
            return i
    return None


__all__ = [
    "UNKNOWN",
    "IdentificationResult",
    "Identifier",
    "estimate_threshold_online",
    "threshold_from_pairs",
    "is_stable",
    "sequence_label",
    "first_correct_epoch",
]
