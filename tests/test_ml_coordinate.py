"""Cross-checks between two independent L1-logistic solvers.

:class:`CoordinateDescentL1Logistic` is a test oracle: a second,
independent solver for the convex objective that
:class:`repro.ml.logistic.L1LogisticRegression` (FISTA) minimizes.  Two
solvers that agree pin down the optimum, which guards against subtle
solver bugs corrupting feature selection, the step the whole method
leans on.  It cycles coordinates, minimizing a quadratic upper bound of
the logistic loss in each (the GLMNET-style update with the 1/4
curvature bound), soft-thresholding per coordinate.
"""

import numpy as np
import pytest

from repro.ml.logistic import (
    L1LogisticRegression,
    LogisticModel,
    _sigmoid,
    _soft_threshold,
)

from tests.test_ml_logistic import make_sparse_problem


class CoordinateDescentL1Logistic:
    """Cyclic coordinate descent with the 1/4 curvature bound."""

    def __init__(self, lam: float = 0.01, max_sweeps: int = 200,
                 tol: float = 1e-7):
        if lam < 0:
            raise ValueError("lam must be non-negative")
        if max_sweeps <= 0:
            raise ValueError("max_sweeps must be positive")
        self.lam = lam
        self.max_sweeps = max_sweeps
        self.tol = tol

    def fit(self, X: np.ndarray, y: np.ndarray) -> LogisticModel:
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        n, d = X.shape
        if y.shape != (n,):
            raise ValueError("y length mismatch")
        if n == 0:
            raise ValueError("cannot fit on empty data")
        if not np.all(np.isin(np.unique(y), (0.0, 1.0))):
            raise ValueError("y must be binary 0/1")

        w = np.zeros(d)
        b = 0.0
        z = X @ w + b  # cached linear predictor
        col_sq = (X**2).sum(axis=0)
        converged = False
        sweep = 0
        for sweep in range(1, self.max_sweeps + 1):
            max_delta = 0.0
            # Intercept (unpenalized) first.
            p = _sigmoid(z)
            grad_b = (p - y).mean()
            step_b = 4.0 * grad_b  # curvature bound: hessian <= 1/4
            b_new = b - step_b
            z += b_new - b
            max_delta = max(max_delta, abs(b_new - b))
            b = b_new

            for j in range(d):
                if col_sq[j] == 0.0:
                    continue
                p = _sigmoid(z)
                grad_j = X[:, j] @ (p - y) / n
                hess_j = col_sq[j] / (4.0 * n)
                w_j_new = _soft_threshold(
                    np.array([w[j] - grad_j / hess_j]),
                    self.lam / hess_j,
                )[0]
                if w_j_new != w[j]:
                    z += X[:, j] * (w_j_new - w[j])
                    max_delta = max(max_delta, abs(w_j_new - w[j]))
                    w[j] = w_j_new
            if max_delta < self.tol:
                converged = True
                break

        return LogisticModel(
            weights=w, intercept=b, lam=self.lam, n_iter=sweep,
            converged=converged,
        )


def l1_objective(
    X: np.ndarray, y: np.ndarray, model: LogisticModel
) -> float:
    """The shared objective both solvers minimize (for cross-checking)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    z = model.decision_function(X)
    # Numerically stable log(1 + exp(-s*z)) with s in {-1, +1}.
    s = 2.0 * y - 1.0
    m = np.maximum(-s * z, 0.0)
    loss = np.mean(m + np.log(np.exp(-m) + np.exp(-s * z - m)))
    return float(loss + model.lam * np.abs(model.weights).sum())


class TestCoordinateDescent:
    def test_recovers_support(self):
        X, y, support = make_sparse_problem()
        model = CoordinateDescentL1Logistic(lam=0.02, max_sweeps=300).fit(
            X, y
        )
        assert support <= set(model.nonzero_indices.tolist())
        assert model.n_nonzero < 20

    def test_validation(self):
        with pytest.raises(ValueError):
            CoordinateDescentL1Logistic(lam=-1.0)
        solver = CoordinateDescentL1Logistic()
        with pytest.raises(ValueError):
            solver.fit(np.zeros((3, 2)), np.array([0, 1]))
        with pytest.raises(ValueError):
            solver.fit(np.zeros((2, 2)), np.array([0, 2]))

    def test_constant_column_ignored(self):
        X, y, _ = make_sparse_problem()
        X = np.hstack([X, np.zeros((len(y), 1))])
        model = CoordinateDescentL1Logistic(lam=0.02).fit(X, y)
        assert model.weights[-1] == 0.0


class TestSolverAgreement:
    @pytest.mark.parametrize("lam", [0.005, 0.02, 0.08])
    def test_same_objective_value(self, lam):
        """Both solvers minimize the same convex objective; their optima
        must agree to high precision."""
        X, y, _ = make_sparse_problem(n=300, d=40)
        fista = L1LogisticRegression(lam=lam, max_iter=5000,
                                     tol=1e-10).fit(X, y)
        cd = CoordinateDescentL1Logistic(lam=lam, max_sweeps=2000,
                                         tol=1e-10).fit(X, y)
        f_fista = l1_objective(X, y, fista)
        f_cd = l1_objective(X, y, cd)
        assert f_cd == pytest.approx(f_fista, rel=1e-4, abs=1e-6)

    def test_same_support_at_moderate_penalty(self):
        X, y, _ = make_sparse_problem(n=500, d=40)
        lam = 0.03
        fista = L1LogisticRegression(lam=lam, max_iter=5000,
                                     tol=1e-10).fit(X, y)
        cd = CoordinateDescentL1Logistic(lam=lam, max_sweeps=2000,
                                         tol=1e-10).fit(X, y)
        strong_f = set(np.flatnonzero(np.abs(fista.weights) > 1e-3))
        strong_c = set(np.flatnonzero(np.abs(cd.weights) > 1e-3))
        assert strong_f == strong_c

    def test_objective_helper_penalizes_weights(self):
        X, y, _ = make_sparse_problem()
        model = L1LogisticRegression(lam=0.02).fit(X, y)
        base = l1_objective(X, y, model)
        heavier = l1_objective(
            X, y,
            type(model)(
                weights=model.weights * 3,
                intercept=model.intercept,
                lam=model.lam,
                n_iter=model.n_iter,
                converged=model.converged,
            ),
        )
        assert heavier > base
