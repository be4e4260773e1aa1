"""Tests for the incremental linear model (recursive least squares)."""

import numpy as np
import pytest

from repro.ml.linear import LinearRegression
from repro.ml.sgd import RecursiveLeastSquares


def make_stream(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 5, size=(n, 2))
    y = 2.0 * X[:, 0] - 1.0 * X[:, 1] + 3.0 + rng.normal(0, 0.05, n)
    return X, y


class TestRecursiveLeastSquares:
    def test_matches_batch_ridge(self):
        # The defining property: sequential RLS equals batch ridge on the
        # uncentred design (fit_intercept handled via augmentation).
        X, y = make_stream(n=100)
        rls = RecursiveLeastSquares(ridge=1.0)
        for i in range(X.shape[0]):
            rls.partial_fit(X[i : i + 1], y[i : i + 1])
        # Batch solution of the same augmented ridge problem.
        Xa = np.hstack([X, np.ones((X.shape[0], 1))])
        w = np.linalg.solve(Xa.T @ Xa + np.eye(3), Xa.T @ y)
        assert np.allclose(rls.coef_, w[:-1], atol=1e-6)
        assert rls.intercept_ == pytest.approx(w[-1], abs=1e-6)

    def test_batch_and_incremental_identical(self):
        X, y = make_stream(n=60)
        a = RecursiveLeastSquares().fit(X, y)
        b = RecursiveLeastSquares()
        for i in range(X.shape[0]):
            b.partial_fit(X[i : i + 1], y[i : i + 1])
        assert np.allclose(a.coef_, b.coef_, atol=1e-8)

    def test_forgetting_tracks_drift(self):
        rng = np.random.default_rng(1)
        X1 = rng.uniform(0, 5, size=(150, 1))
        y1 = 1.0 * X1[:, 0]
        X2 = rng.uniform(0, 5, size=(150, 1))
        y2 = 5.0 * X2[:, 0]  # regime change
        fast = RecursiveLeastSquares(forgetting=0.9)
        slow = RecursiveLeastSquares(forgetting=1.0)
        for m in (fast, slow):
            m.partial_fit(X1, y1)
            m.partial_fit(X2, y2)
        # The forgetting model must be closer to the new slope.
        assert abs(fast.coef_[0] - 5.0) < abs(slow.coef_[0] - 5.0)

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError, match="ridge"):
            RecursiveLeastSquares(ridge=0.0).fit([[1.0]], [1.0])
        with pytest.raises(ValueError, match="forgetting"):
            RecursiveLeastSquares(forgetting=1.5).fit([[1.0]], [1.0])

    def test_close_to_ols_with_small_ridge(self):
        X, y = make_stream(n=200)
        rls = RecursiveLeastSquares(ridge=1e-6).fit(X, y)
        ref = LinearRegression().fit(X, y)
        assert np.allclose(rls.coef_, ref.coef_, atol=1e-3)

    def test_single_point_predicts_its_label(self):
        m = RecursiveLeastSquares(ridge=1e-6).fit([[4.0]], [10.0])
        assert m.predict([[4.0]])[0] == pytest.approx(10.0, rel=1e-3)
