"""Adaptation of the SOSP'05 signatures approach (paper appendix).

Cohen et al. build, per crisis, a model that (a) selects the metrics most
relevant to that crisis and (b) thresholds each selected metric with a
per-metric classifier; an epoch's *signature* sets +1 for relevant metrics
attributed as anomalous, −1 for relevant-but-normal metrics, and 0 for
irrelevant ones.  Crises are retrieved by signature similarity.

Following the paper's appendix, our adaptation makes every contested choice
in the signatures approach's favor:

* metrics are aggregated across servers with quantiles (a per-server model
  farm would make the representation exponential in the metric count);
* one model per crisis is built with *perfect knowledge* of that crisis —
  equivalent to assuming the Brier-score model-selection machinery always
  picks the ideal model;
* metric selection uses L1-regularized logistic regression (shown more
  robust than the original naive Bayes feature search), and the per-metric
  attribution threshold comes from the same classifier fit on each metric
  in isolation.

Distances are computed under the *known* crisis's model: when matching a
new crisis against a library entry, the library entry's model produces the
signatures of both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.config import FingerprintConfig
from repro.datacenter.trace import CrisisRecord, DatacenterTrace
from repro.core.selection import stabilize
from repro.methods.base import OfflineMethod
from repro.ml.logistic import L1LogisticRegression, select_top_k_features
from repro.ml.preprocessing import StandardScaler


@dataclass
class SignatureModel:
    """Per-crisis model: relevant features plus per-feature attribution.

    ``weights``/``intercepts`` are per-feature single-variable logistic
    parameters on *standardized* values; a feature is attributed anomalous
    when its classifier votes for the anomalous class.
    """

    feature_indices: np.ndarray  # into the flattened (metric, quantile) axis
    means: np.ndarray
    scales: np.ndarray
    weights: np.ndarray
    intercepts: np.ndarray
    n_features_total: int

    def attribute(self, epoch_features: np.ndarray) -> np.ndarray:
        """Epoch signatures: {-1, 0, +1} over all features.

        ``epoch_features`` is ``(n_epochs, n_features_total)`` of raw
        flattened quantile values.
        """
        feats = np.asarray(epoch_features, dtype=float)
        if feats.ndim == 1:
            feats = feats[None]
        sub = (feats[:, self.feature_indices] - self.means) / self.scales
        votes = sub * self.weights + self.intercepts  # (n_epochs, k)
        sig = np.zeros((feats.shape[0], self.n_features_total), dtype=float)
        sig[:, self.feature_indices] = np.where(votes > 0.0, 1.0, -1.0)
        return sig


class SignaturesMethod(OfflineMethod):
    """The signatures baseline over datacenter-wide quantile features."""

    name = "signatures"

    def __init__(
        self,
        top_k: int = 10,
        normal_epochs: int = 192,
        fingerprint: FingerprintConfig = FingerprintConfig(),
    ):
        self.top_k = top_k
        self.normal_epochs = normal_epochs
        self.fingerprint = fingerprint
        self.trace: Optional[DatacenterTrace] = None
        self.models: Dict[int, SignatureModel] = {}
        self._flat_cache: Optional[np.ndarray] = None

    # -- model construction -------------------------------------------------

    def _flat_quantiles(self) -> np.ndarray:
        # Same variance stabilization as the fingerprint feature selection
        # (a choice favorable to the signatures approach; raw heavy-tailed
        # values would wreck its per-crisis model fits).  Cached: the trace
        # is large and every signature computation slices this matrix.
        if self._flat_cache is None:
            q = self.trace.quantiles
            self._flat_cache = stabilize(q.reshape(q.shape[0], -1))
        return self._flat_cache

    def _training_epochs(self, crisis: CrisisRecord):
        """Crisis-epoch and normal-epoch indices for one crisis's model."""
        det = crisis.detected_epoch
        span = self.fingerprint.window(det, self.trace.n_epochs)
        crisis_idx = np.arange(det, span.stop)
        # Crisis-free epochs immediately preceding the summary window.
        lo_search = max(span.start - 1, 0)
        candidates = np.arange(max(lo_search - 4 * self.normal_epochs, 0),
                               lo_search)
        normal_mask = ~self.trace.anomalous[candidates]
        normal_idx = candidates[normal_mask][-self.normal_epochs :]
        return crisis_idx, normal_idx

    def build_model(self, crisis: CrisisRecord) -> SignatureModel:
        """Fit the per-crisis signature model with perfect knowledge."""
        if self.trace is None:
            raise RuntimeError("method is not fitted")
        flat = self._flat_quantiles()
        crisis_idx, normal_idx = self._training_epochs(crisis)
        if len(normal_idx) == 0:
            raise ValueError("no normal epochs available for model training")
        X = np.concatenate([flat[crisis_idx], flat[normal_idx]])
        y = np.concatenate(
            [np.ones(len(crisis_idx)), np.zeros(len(normal_idx))]
        )
        scaler = StandardScaler().fit(X)
        Xs = scaler.transform(X)
        picked = select_top_k_features(Xs, y, k=self.top_k)
        if picked.size == 0:
            picked = np.array([0], dtype=int)

        weights = np.empty(picked.size)
        intercepts = np.empty(picked.size)
        solver = L1LogisticRegression(lam=1e-4, max_iter=500)
        for j, f in enumerate(picked):
            model = solver.fit(Xs[:, [f]], y)
            weights[j] = model.weights[0]
            intercepts[j] = model.intercept
        return SignatureModel(
            feature_indices=picked,
            means=scaler.mean_[picked],
            scales=scaler.scale_[picked],
            weights=weights,
            intercepts=intercepts,
            n_features_total=flat.shape[1],
        )

    def fit(self, trace: DatacenterTrace, crises: List[CrisisRecord]) -> None:
        if trace is not self.trace:
            self._flat_cache = None
        self.trace = trace
        self.models = {c.index: self.build_model(c) for c in crises}

    # -- signatures and distances -------------------------------------------

    def signature(
        self,
        crisis: CrisisRecord,
        model: SignatureModel,
        n_epochs: Optional[int] = None,
    ) -> np.ndarray:
        """Crisis signature under a given model (averaged epoch signatures)."""
        det = crisis.detected_epoch
        if det is None:
            raise ValueError("crisis was never detected")
        span = self.fingerprint.window(det, self.trace.n_epochs, n_epochs)
        return model.attribute(self._flat_quantiles()[span]).mean(axis=0)

    def pair_distance(
        self,
        new: CrisisRecord,
        known: CrisisRecord,
        n_epochs: Optional[int] = None,
    ) -> float:
        """Distance under the known crisis's model."""
        model = self.models.get(known.index)
        if model is None:
            model = self.models[known.index] = self.build_model(known)
        sig_new = self.signature(new, model, n_epochs)
        sig_known = self.signature(known, model, n_epochs)
        return float(np.linalg.norm(sig_new - sig_known))


__all__ = ["SignatureModel", "SignaturesMethod"]
