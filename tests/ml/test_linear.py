"""Tests for OLS and quantile regression."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.linear import LinearRegression, QuantileRegressor
from repro.ml.metrics import pinball_loss


def make_linear(n=80, slope=3.0, intercept=5.0, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 10, size=(n, 1))
    y = slope * x[:, 0] + intercept + rng.normal(0, noise, n)
    return x, y


class TestLinearRegression:
    def test_recovers_exact_line(self):
        X, y = make_linear()
        m = LinearRegression().fit(X, y)
        assert m.coef_[0] == pytest.approx(3.0)
        assert m.intercept_ == pytest.approx(5.0)

    def test_prediction_matches_formula(self):
        X, y = make_linear(noise=0.5)
        m = LinearRegression().fit(X, y)
        got = m.predict([[4.0]])
        assert got[0] == pytest.approx(4.0 * m.coef_[0] + m.intercept_)

    def test_no_intercept(self):
        X, y = make_linear(intercept=0.0)
        m = LinearRegression(fit_intercept=False).fit(X, y)
        assert m.intercept_ == 0.0
        assert m.coef_[0] == pytest.approx(3.0)

    def test_multifeature(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(100, 3))
        w = np.array([1.0, -2.0, 0.5])
        y = X @ w + 7.0
        m = LinearRegression().fit(X, y)
        assert np.allclose(m.coef_, w)
        assert m.intercept_ == pytest.approx(7.0)

    def test_rank_deficient_constant_inputs(self):
        # All-identical inputs: the SVD solver must not blow up, and the
        # prediction at the seen input must equal the mean target.
        X = np.full((5, 1), 3.0)
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        m = LinearRegression().fit(X, y)
        assert m.predict([[3.0]])[0] == pytest.approx(3.0)

    def test_single_sample(self):
        m = LinearRegression().fit([[2.0]], [4.0])
        assert m.predict([[2.0]])[0] == pytest.approx(4.0)

    def test_feature_count_mismatch_raises(self):
        X, y = make_linear()
        m = LinearRegression().fit(X, y)
        with pytest.raises(ValueError, match="features"):
            m.predict([[1.0, 2.0]])

    @given(
        st.floats(min_value=-100, max_value=100),
        st.floats(min_value=-100, max_value=100),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_recovers_arbitrary_lines(self, slope, intercept):
        x = np.linspace(0, 10, 20).reshape(-1, 1)
        y = slope * x[:, 0] + intercept
        m = LinearRegression().fit(x, y)
        assert np.allclose(m.predict(x), y, atol=1e-6 + 1e-6 * abs(slope))


class TestQuantileRegressor:
    def test_median_line_on_exact_data(self):
        X, y = make_linear()
        m = QuantileRegressor(quantile=0.5).fit(X, y)
        assert m.coef_[0] == pytest.approx(3.0, abs=1e-6)
        assert m.intercept_ == pytest.approx(5.0, abs=1e-5)

    def test_quantile_ordering(self):
        # Higher quantile lines must lie (weakly) above lower ones at the
        # data's centre of mass.
        X, y = make_linear(noise=2.0, n=200)
        preds = {
            q: QuantileRegressor(quantile=q).fit(X, y).predict([[5.0]])[0]
            for q in (0.1, 0.5, 0.9)
        }
        assert preds[0.1] <= preds[0.5] + 1e-9
        assert preds[0.5] <= preds[0.9] + 1e-9

    def test_coverage_close_to_quantile(self):
        X, y = make_linear(noise=3.0, n=300, seed=5)
        q = 0.8
        m = QuantileRegressor(quantile=q).fit(X, y)
        cover = np.mean(y <= m.predict(X))
        assert cover == pytest.approx(q, abs=0.06)

    def test_minimises_pinball_loss_vs_ols(self):
        X, y = make_linear(noise=3.0, n=150, seed=7)
        q = 0.9
        qr = QuantileRegressor(quantile=q).fit(X, y)
        ols = LinearRegression().fit(X, y)
        assert pinball_loss(y, qr.predict(X), q) <= pinball_loss(
            y, ols.predict(X), q
        ) + 1e-9

    @pytest.mark.parametrize("q", [0.0, 1.0])
    def test_quantile_domain(self, q):
        with pytest.raises(ValueError, match="quantile"):
            QuantileRegressor(quantile=q).fit([[1.0], [2.0]], [1.0, 2.0])
