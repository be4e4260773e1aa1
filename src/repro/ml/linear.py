"""Linear models: ordinary least squares and quantile regression.

The paper observes that many workflow tasks have a linear relationship
between input size and peak memory (Fig. 2, MarkDuplicates), which is why
a linear model is one of Sizey's four model classes.  Quantile regression
(pinball loss) is required by the Witt-Wastage baseline, which fits a set
of quantile regression lines and keeps the one with the least historical
wastage.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import (
    BaseEstimator,
    RegressorMixin,
    check_array,
    check_is_fitted,
    check_X_y,
)

__all__ = ["LinearRegression", "QuantileRegressor"]


def _add_intercept(X: np.ndarray) -> np.ndarray:
    return np.hstack([X, np.ones((X.shape[0], 1), dtype=np.float64)])


class LinearRegression(BaseEstimator, RegressorMixin):
    """Ordinary least squares via :func:`numpy.linalg.lstsq`.

    ``lstsq`` (SVD-based) handles rank-deficient design matrices, which
    occur online whenever all observed inputs are identical — common in
    the first few task executions of a workflow.
    """

    def __init__(self, fit_intercept: bool = True) -> None:
        self.fit_intercept = fit_intercept

    def fit(self, X, y) -> "LinearRegression":
        X, y = check_X_y(X, y)
        design = _add_intercept(X) if self.fit_intercept else X
        beta, *_ = np.linalg.lstsq(design, y, rcond=None)
        if self.fit_intercept:
            self.coef_ = beta[:-1]
            self.intercept_ = float(beta[-1])
        else:
            self.coef_ = beta
            self.intercept_ = 0.0
        self.n_features_in_ = X.shape[1]
        return self

    def predict(self, X) -> np.ndarray:
        check_is_fitted(self, ["coef_"])
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features, model was fitted with "
                f"{self.n_features_in_}"
            )
        return X @ self.coef_ + self.intercept_


class QuantileRegressor(BaseEstimator, RegressorMixin):
    """Linear quantile regression minimising the pinball loss.

    Solved as a linear program in the standard formulation::

        min  q * sum(u) + (1 - q) * sum(v)
        s.t. y - X beta = u - v,   u, v >= 0

    using :func:`scipy.optimize.linprog` (HiGHS).  For ``quantile=0.5``
    this is least-absolute-deviation regression.
    """

    def __init__(self, quantile: float = 0.5, fit_intercept: bool = True) -> None:
        self.quantile = quantile
        self.fit_intercept = fit_intercept

    def fit(self, X, y) -> "QuantileRegressor":
        if not 0.0 < self.quantile < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {self.quantile}")
        X, y = check_X_y(X, y)
        design = _add_intercept(X) if self.fit_intercept else X
        n, d = design.shape
        # Variables: [beta (free, d), u (n), v (n)]
        c = np.concatenate(
            [
                np.zeros(d),
                np.full(n, self.quantile),
                np.full(n, 1.0 - self.quantile),
            ]
        )
        a_eq = np.hstack([design, np.eye(n), -np.eye(n)])
        bounds = [(None, None)] * d + [(0.0, None)] * (2 * n)
        # Imported here, not at module load: scipy.optimize costs ~0.45 s
        # and ~40 MB, and only the Witt-Wastage baseline fits these lines.
        from scipy import optimize

        res = optimize.linprog(
            c, A_eq=a_eq, b_eq=y, bounds=bounds, method="highs"
        )
        if not res.success:  # pragma: no cover - HiGHS is robust on these LPs
            raise RuntimeError(f"quantile regression LP failed: {res.message}")
        beta = res.x[:d]
        if self.fit_intercept:
            self.coef_ = beta[:-1]
            self.intercept_ = float(beta[-1])
        else:
            self.coef_ = beta
            self.intercept_ = 0.0
        self.n_features_in_ = X.shape[1]
        return self

    def predict(self, X) -> np.ndarray:
        check_is_fitted(self, ["coef_"])
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features, model was fitted with "
                f"{self.n_features_in_}"
            )
        return X @ self.coef_ + self.intercept_
