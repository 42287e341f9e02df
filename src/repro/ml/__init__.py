"""Statistical machine-learning substrate.

Everything the fingerprinting method and the signatures baseline need,
implemented from scratch on numpy/scipy:

* :mod:`repro.ml.preprocessing` — feature standardization;
* :mod:`repro.ml.logistic` — L1-regularized logistic regression solved by
  proximal gradient descent (FISTA), plus a regularization-path helper used
  for top-k feature selection (Section 3.4 of the paper);
* :mod:`repro.ml.naive_bayes` — Gaussian naive Bayes, the classifier family
  used by the original signatures work (Cohen et al., SOSP'05);
* :mod:`repro.ml.roc` — ROC curves, AUC, and threshold selection at a target
  false-alarm rate;
* :mod:`repro.ml.crossval` — k-fold utilities for validating classifiers.
"""

from repro.ml.crossval import cross_val_score, kfold_indices
from repro.ml.logistic import (
    L1LogisticRegression,
    LogisticModel,
    select_top_k_features,
)
from repro.ml.naive_bayes import GaussianNaiveBayes
from repro.ml.preprocessing import StandardScaler
from repro.ml.roc import ROCCurve, auc_score, roc_curve, threshold_at_alpha

__all__ = [
    "cross_val_score",
    "kfold_indices",
    "L1LogisticRegression",
    "LogisticModel",
    "select_top_k_features",
    "GaussianNaiveBayes",
    "StandardScaler",
    "ROCCurve",
    "auc_score",
    "roc_curve",
    "threshold_at_alpha",
]
