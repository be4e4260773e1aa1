"""Incrementally trainable linear regression.

Sizey's incremental-update mode (paper §III-D, Fig. 9) performs a
"lightweight — and thus fast — online learning step" after each task
completion instead of a full retrain.  For the linear model class this
is :class:`RecursiveLeastSquares`: exact online least squares via the
Sherman-Morrison rank-1 update, so each ``partial_fit`` costs O(d^2) and
the coefficients equal a batch ridge fit at every step — with no
learning-rate hyper-parameter to tune online.
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

__all__ = ["RecursiveLeastSquares"]


class RecursiveLeastSquares(BaseEstimator, RegressorMixin):
    """Exact online ridge regression via Sherman-Morrison updates.

    Maintains ``P = (X'X + lambda I)^-1`` and updates it per sample in
    O(d^2); after any sequence of ``partial_fit`` calls the coefficients
    are identical (up to floating point) to a batch ridge fit on all data
    seen so far.  ``forgetting`` < 1 exponentially discounts old samples,
    useful when a task's memory behaviour drifts during a campaign.
    """

    def __init__(
        self,
        ridge: float = 1.0,
        forgetting: float = 1.0,
        fit_intercept: bool = True,
    ) -> None:
        self.ridge = ridge
        self.forgetting = forgetting
        self.fit_intercept = fit_intercept

    def _augment(self, X: np.ndarray) -> np.ndarray:
        if self.fit_intercept:
            return np.hstack([X, np.ones((X.shape[0], 1))])
        return X

    def _ensure_state(self, d_aug: int) -> None:
        if not hasattr(self, "P_"):
            if self.ridge <= 0:
                raise ValueError(f"ridge must be positive, got {self.ridge}")
            if not 0.0 < self.forgetting <= 1.0:
                raise ValueError(
                    f"forgetting must be in (0, 1], got {self.forgetting}"
                )
            self.P_ = np.eye(d_aug) / self.ridge
            self.w_ = np.zeros(d_aug)
            self.n_samples_seen_ = 0
        elif self.w_.shape[0] != d_aug:
            raise ValueError("feature dimension changed between updates")

    def partial_fit(self, X, y) -> "RecursiveLeastSquares":
        X, y = check_X_y(X, y)
        Xa = self._augment(X)
        self._ensure_state(Xa.shape[1])
        lam = self.forgetting
        for i in range(Xa.shape[0]):
            x = Xa[i]
            px = self.P_ @ x
            denom = lam + float(x @ px)
            k = px / denom
            err = float(y[i]) - float(x @ self.w_)
            self.w_ = self.w_ + k * err
            # P <- (P - k x' P) / lambda ; keep symmetric to fight drift.
            self.P_ = (self.P_ - np.outer(k, px)) / lam
            self.P_ = 0.5 * (self.P_ + self.P_.T)
            self.n_samples_seen_ += 1
        self._publish()
        return self

    def fit(self, X, y) -> "RecursiveLeastSquares":
        for attr in ("P_", "w_", "n_samples_seen_", "coef_", "intercept_"):
            if hasattr(self, attr):
                delattr(self, attr)
        return self.partial_fit(X, y)

    def _publish(self) -> None:
        if self.fit_intercept:
            self.coef_ = self.w_[:-1].copy()
            self.intercept_ = float(self.w_[-1])
        else:
            self.coef_ = self.w_.copy()
            self.intercept_ = 0.0
        self.n_features_in_ = self.coef_.shape[0]

    def predict(self, X) -> np.ndarray:
        check_is_fitted(self, ["coef_"])
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features, model was fitted with "
                f"{self.n_features_in_}"
            )
        return X @ self.coef_ + self.intercept_
