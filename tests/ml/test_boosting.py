"""Tests for gradient boosting."""

import numpy as np
import pytest

from repro.ml.boosting import GradientBoostingRegressor


def make_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 4, size=(n, 2))
    y = np.sin(X[:, 0]) * 2 + X[:, 1] + rng.normal(0, 0.1, n)
    return X, y


class TestGradientBoosting:
    def test_fits_nonlinear_signal(self):
        X, y = make_data()
        m = GradientBoostingRegressor(n_estimators=150, random_state=0).fit(X, y)
        assert m.score(X, y) > 0.95

    def test_training_loss_decreases(self):
        X, y = make_data()
        m = GradientBoostingRegressor(n_estimators=60, random_state=0).fit(X, y)
        assert m.train_score_[-1] < m.train_score_[0]
        assert len(m.train_score_) == 60

    def test_single_stage_is_shrunk_tree_plus_mean(self):
        X, y = make_data(n=50)
        m = GradientBoostingRegressor(
            n_estimators=1, learning_rate=0.5, random_state=0
        ).fit(X, y)
        p = m.predict(X)
        assert np.allclose(p.mean(), y.mean(), rtol=0.1)

    def test_staged_predict_converges_to_predict(self):
        X, y = make_data(n=80)
        m = GradientBoostingRegressor(n_estimators=20, random_state=0).fit(X, y)
        *_, last = m.staged_predict(X)
        assert np.allclose(last, m.predict(X))

    def test_huber_loss_resists_outlier(self):
        X, y = make_data(n=100, seed=1)
        y_out = y.copy()
        y_out[0] += 1000.0
        sq = GradientBoostingRegressor(
            n_estimators=50, loss="squared", random_state=0
        ).fit(X, y_out)
        hu = GradientBoostingRegressor(
            n_estimators=50, loss="huber", random_state=0
        ).fit(X, y_out)
        clean = ~np.eye(1, 100, 0, dtype=bool)[0]
        err_sq = np.mean((sq.predict(X[clean]) - y[clean]) ** 2)
        err_hu = np.mean((hu.predict(X[clean]) - y[clean]) ** 2)
        assert err_hu < err_sq

    def test_subsample_stochastic(self):
        X, y = make_data(n=120)
        m = GradientBoostingRegressor(
            n_estimators=30, subsample=0.5, random_state=0
        ).fit(X, y)
        assert m.score(X, y) > 0.8

    def test_validation(self):
        X, y = make_data(n=10)
        with pytest.raises(ValueError, match="n_estimators"):
            GradientBoostingRegressor(n_estimators=0).fit(X, y)
        with pytest.raises(ValueError, match="learning_rate"):
            GradientBoostingRegressor(learning_rate=0.0).fit(X, y)
        with pytest.raises(ValueError, match="loss"):
            GradientBoostingRegressor(loss="absolute").fit(X, y)
        with pytest.raises(ValueError, match="subsample"):
            GradientBoostingRegressor(subsample=0.0).fit(X, y)

    def test_deterministic(self):
        X, y = make_data(n=60)
        a = GradientBoostingRegressor(n_estimators=10, random_state=3).fit(X, y)
        b = GradientBoostingRegressor(n_estimators=10, random_state=3).fit(X, y)
        assert np.array_equal(a.predict(X), b.predict(X))

