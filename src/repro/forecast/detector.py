"""Two-stage crisis forecasting detector.

Stage 1 — *is a crisis imminent?* — is L1-regularized logistic
regression (:mod:`repro.ml.logistic`) over the online feature vectors of
:mod:`repro.forecast.features`, with the penalty chosen by k-fold
cross-validated held-out log-loss (:func:`repro.ml.crossval.kfold_indices`)
and the alarm threshold picked from the training ROC
(:mod:`repro.ml.roc`) at an explicit false-alarm budget — the operating
point with the best recall whose normal-epoch alarm rate stays within
budget, replacing the quantile-only threshold of the offline demo.

Stage 2 — *which fingerprint?* — matches the current partial fingerprint
(the mean of the last ``pre_epochs + 1`` summary vectors) against the
incident catalog with :class:`repro.core.identification.Identifier`,
gated by the Section 5.1.2 identification threshold estimated over the
catalog; a match beyond the threshold reports the don't-know label
rather than guessing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.identification import (
    UNKNOWN,
    Identifier,
    estimate_threshold_online,
)
from repro.ml.crossval import kfold_indices
from repro.ml.logistic import L1LogisticRegression, LogisticModel, lambda_max
from repro.ml.roc import roc_curve

#: Candidate L1 penalties as fractions of ``lambda_max`` (the smallest
#: penalty that zeroes every coefficient).
LAMBDA_FRACTIONS: Tuple[float, ...] = (0.5, 0.2, 0.1, 0.05, 0.02, 0.01)


def normalize_fingerprint(vec: np.ndarray, eps: float = 1e-9) -> np.ndarray:
    """Unit-norm direction of a summary fingerprint (zeros stay zero).

    Stage-2 queries are *partial* fingerprints: at alarm time the crisis
    is still ramping, so the summary cells carry the right sign pattern
    at a fraction of the catalog entries' magnitude.  Matching raw
    Euclidean distance would therefore prefer whichever catalog entry
    is weakest overall; matching directions identifies the *pattern*
    regardless of how far the ramp has progressed.
    """
    vec = np.asarray(vec, dtype=np.float64)
    norm = float(np.linalg.norm(vec))
    return vec if norm < eps else vec / norm


def _mean_nll(p: np.ndarray, y: np.ndarray) -> float:
    """Mean negative log-likelihood, clipped away from log(0)."""
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


class TwoStageDetector:
    """Imminence scoring plus catalog identification for early warning."""

    def __init__(
        self,
        horizon_epochs: int = 4,
        false_alarm_budget: float = 0.02,
    ):
        if horizon_epochs < 1:
            raise ValueError("horizon_epochs must be positive")
        if not 0.0 < false_alarm_budget < 1.0:
            raise ValueError("false_alarm_budget must lie in (0, 1)")
        self.horizon_epochs = int(horizon_epochs)
        self.false_alarm_budget = float(false_alarm_budget)
        # Stage 1
        self.model: Optional[LogisticModel] = None
        self.lam: Optional[float] = None
        self.cv_table: List[dict] = []
        self._mean: Optional[np.ndarray] = None
        self._scale: Optional[np.ndarray] = None
        self.alarm_threshold: Optional[float] = None
        self.calibration_recall: Optional[float] = None
        self.calibration_fpr: Optional[float] = None
        # Stage 2
        self._catalog_vectors: Optional[np.ndarray] = None
        self._catalog_labels: List[str] = []
        self.match_threshold: Optional[float] = None

    # -- stage 1: imminence -----------------------------------------------

    @property
    def is_fitted(self) -> bool:
        """True once both the model and its alarm threshold exist."""
        return self.model is not None and self.alarm_threshold is not None

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        lams: Optional[Sequence[float]] = None,
        cv_folds: int = 5,
        seed: int = 0,
        max_iter: int = 600,
    ) -> "TwoStageDetector":
        """Fit stage 1 with the penalty cross-validated by held-out NLL."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be 2-D with one row per label")
        if X.shape[0] < cv_folds:
            raise ValueError("not enough samples for the requested folds")
        if not (np.any(y == 1.0) and np.any(y == 0.0)):
            raise ValueError("need both positive and negative examples")
        self._mean = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale < 1e-9] = 1.0
        self._scale = scale
        Xs = (X - self._mean) / self._scale

        if lams is None:
            lam_hi = lambda_max(Xs, y)
            if lam_hi <= 0:
                lam_hi = 1e-3
            lams = [lam_hi * f for f in LAMBDA_FRACTIONS]
        rng = np.random.default_rng(seed)
        folds = list(kfold_indices(len(y), cv_folds, rng))
        self.cv_table = []
        for lam in lams:
            solver = L1LogisticRegression(lam=float(lam), max_iter=max_iter)
            nlls = []
            for train, test in folds:
                model = solver.fit(Xs[train], y[train])
                nlls.append(_mean_nll(model.predict_proba(Xs[test]), y[test]))
            model = solver.fit(Xs, y)
            self.cv_table.append(
                {
                    "lam": float(lam),
                    "cv_nll": float(np.mean(nlls)),
                    "n_nonzero": model.n_nonzero,
                }
            )
        best = min(self.cv_table, key=lambda row: (row["cv_nll"], row["lam"]))
        self.lam = best["lam"]
        self.model = L1LogisticRegression(
            lam=self.lam, max_iter=2 * max_iter
        ).fit(Xs, y)
        return self

    def score(self, X: np.ndarray) -> np.ndarray:
        """P(crisis within the lead horizon) for feature rows ``X``."""
        if self.model is None:
            raise RuntimeError("detector stage 1 is not fitted")
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None]
        return self.model.predict_proba((X - self._mean) / self._scale)

    def calibrate(
        self,
        scores: np.ndarray,
        is_positive: np.ndarray,
        false_alarm_budget: Optional[float] = None,
    ) -> float:
        """ROC-driven alarm threshold at the false-alarm budget.

        Scores are probabilities (high = alarming); the distance-oriented
        :func:`repro.ml.roc.roc_curve` is applied to their negation, so
        ``threshold_at_alpha`` returns the most permissive operating
        point whose false-positive rate stays within budget.  Alarms then
        fire on ``score >= alarm_threshold``.
        """
        if false_alarm_budget is None:
            false_alarm_budget = self.false_alarm_budget
        scores = np.asarray(scores, dtype=float).ravel()
        is_positive = np.asarray(is_positive).astype(bool).ravel()
        curve = roc_curve(-scores, is_positive)
        self.alarm_threshold = -curve.threshold_at_alpha(false_alarm_budget)
        pos = scores[is_positive]
        neg = scores[~is_positive]
        self.calibration_recall = float(
            np.mean(pos >= self.alarm_threshold)
        )
        self.calibration_fpr = float(np.mean(neg >= self.alarm_threshold))
        return self.alarm_threshold

    # -- stage 2: identification ------------------------------------------

    def set_catalog(
        self,
        vectors: np.ndarray,
        labels: Sequence[str],
        alpha: float = 0.05,
    ) -> None:
        """Install the incident catalog stage 2 matches against.

        The identification threshold comes from the Section 5.1.2
        estimator over the catalog itself; with too few same-label pairs
        to estimate one, the nearest entry is reported ungated (an early
        advisory guess beats a guaranteed don't-know).
        """
        vectors = np.asarray(vectors, dtype=np.float64)
        labels = [str(label) for label in labels]
        if vectors.ndim != 2 or vectors.shape[0] != len(labels):
            raise ValueError("need one catalog vector per label")
        if not labels:
            raise ValueError("catalog must not be empty")
        self._catalog_vectors = vectors
        self._catalog_labels = labels
        try:
            self.match_threshold = float(
                estimate_threshold_online(list(vectors), labels, alpha)
            )
        except ValueError:
            self.match_threshold = None  # ungated nearest-entry matching

    @property
    def catalog_size(self) -> int:
        return 0 if self._catalog_vectors is None else len(
            self._catalog_labels
        )

    def identify(
        self, fingerprint: np.ndarray
    ) -> Tuple[str, Optional[float]]:
        """Name the impending crisis from a partial fingerprint."""
        if self._catalog_vectors is None:
            return UNKNOWN, None
        threshold = (
            np.inf if self.match_threshold is None else self.match_threshold
        )
        result = Identifier(threshold).identify(
            fingerprint, list(zip(self._catalog_vectors, self._catalog_labels))
        )
        return result.label, result.distance

    # -- snapshot ----------------------------------------------------------

    def snapshot(self, prefix: str = "") -> Tuple[dict, Dict[str, np.ndarray]]:
        header = {
            "horizon_epochs": self.horizon_epochs,
            "false_alarm_budget": self.false_alarm_budget,
            "lam": self.lam,
            "cv_table": self.cv_table,
            "alarm_threshold": self.alarm_threshold,
            "calibration_recall": self.calibration_recall,
            "calibration_fpr": self.calibration_fpr,
            "match_threshold": self.match_threshold,
            "catalog_labels": list(self._catalog_labels),
            "has_model": self.model is not None,
            "has_catalog": self._catalog_vectors is not None,
        }
        arrays: Dict[str, np.ndarray] = {}
        if self.model is not None:
            header["model"] = {
                "intercept": float(self.model.intercept),
                "lam": float(self.model.lam),
                "n_iter": int(self.model.n_iter),
                "converged": bool(self.model.converged),
            }
            arrays[f"{prefix}weights"] = self.model.weights.copy()
            arrays[f"{prefix}mean"] = self._mean.copy()
            arrays[f"{prefix}scale"] = self._scale.copy()
        if self._catalog_vectors is not None:
            arrays[f"{prefix}catalog"] = self._catalog_vectors.copy()
        return header, arrays

    @classmethod
    def from_snapshot(
        cls, header: dict, arrays, prefix: str = ""
    ) -> "TwoStageDetector":
        out = cls(
            horizon_epochs=int(header["horizon_epochs"]),
            false_alarm_budget=float(header["false_alarm_budget"]),
        )
        out.lam = header.get("lam")
        out.cv_table = list(header.get("cv_table", []))
        threshold = header.get("alarm_threshold")
        out.alarm_threshold = None if threshold is None else float(threshold)
        out.calibration_recall = header.get("calibration_recall")
        out.calibration_fpr = header.get("calibration_fpr")
        match = header.get("match_threshold")
        out.match_threshold = None if match is None else float(match)
        if header.get("has_model"):
            meta = header["model"]
            out.model = LogisticModel(
                weights=np.array(arrays[f"{prefix}weights"], dtype=float),
                intercept=float(meta["intercept"]),
                lam=float(meta["lam"]),
                n_iter=int(meta["n_iter"]),
                converged=bool(meta["converged"]),
            )
            out._mean = np.array(arrays[f"{prefix}mean"], dtype=float)
            out._scale = np.array(arrays[f"{prefix}scale"], dtype=float)
        if header.get("has_catalog"):
            out._catalog_vectors = np.array(
                arrays[f"{prefix}catalog"], dtype=np.float64
            )
            out._catalog_labels = [
                str(label) for label in header.get("catalog_labels", [])
            ]
        return out


__all__ = ["LAMBDA_FRACTIONS", "TwoStageDetector", "normalize_fingerprint"]
