"""Micro-benchmarks of the ML substrate's hot paths.

Sizey's online loop calls ``fit``/``partial_fit``/``predict`` once per
task completion, so per-call latency here bounds the end-to-end
simulation throughput (and is what Fig. 9 aggregates).  Representative
sizes: a few hundred provenance records, one feature.
"""

import numpy as np
import pytest

from repro.ml.forest import RandomForestRegressor
from repro.ml.linear import LinearRegression, QuantileRegressor
from repro.ml.mlp import MLPRegressor
from repro.ml.neighbors import KNeighborsRegressor
from repro.ml.sgd import RecursiveLeastSquares
from repro.ml.tree import DecisionTreeRegressor

N = 400


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    X = rng.uniform(10, 5000, size=(N, 1))
    y = 2.0 * X[:, 0] + 500.0 + rng.normal(0, 50.0, N)
    return X, y


def test_bench_linear_fit(benchmark, data):
    X, y = data
    model = benchmark(lambda: LinearRegression().fit(X, y))
    assert model.coef_[0] == pytest.approx(2.0, rel=0.05)


def test_bench_rls_partial_fit_step(benchmark, data):
    X, y = data
    model = RecursiveLeastSquares().fit(X, y)

    def step():
        model.partial_fit(X[:1], y[:1])
        return model

    benchmark(step)
    assert model.coef_[0] == pytest.approx(2.0, rel=0.05)


def test_bench_knn_predict(benchmark, data):
    X, y = data
    model = KNeighborsRegressor(n_neighbors=5).fit(X, y)
    out = benchmark(lambda: model.predict(X[:1]))
    assert np.isfinite(out).all()


def test_bench_tree_fit(benchmark, data):
    X, y = data
    model = benchmark(lambda: DecisionTreeRegressor(max_depth=8).fit(X, y))
    assert model.n_leaves_ > 1


def test_bench_forest_fit(benchmark, data):
    X, y = data
    model = benchmark(
        lambda: RandomForestRegressor(n_estimators=20, random_state=0).fit(X, y)
    )
    assert len(model.estimators_) == 20


def test_bench_forest_refit_window(benchmark, data):
    # Sizey's incremental refit: 20 trees on the pool's 64-point window.
    X, y = data
    model = benchmark(
        lambda: RandomForestRegressor(n_estimators=20, random_state=0).fit(
            X[-64:], y[-64:]
        )
    )
    assert len(model.estimators_) == 20


def test_bench_forest_one_row_fit(benchmark, data):
    # A pool's first fit, on its first observation.
    X, y = data
    model = benchmark(
        lambda: RandomForestRegressor(n_estimators=20, random_state=0).fit(X[:1], y[:1])
    )
    assert all(tree.n_leaves_ == 1 for tree in model.estimators_)


def test_bench_mlp_partial_fit(benchmark, data):
    X, y = data
    scaled_X = (X - X.mean()) / X.std()
    scaled_y = (y - y.mean()) / y.std()
    model = MLPRegressor(
        hidden_layer_sizes=(16,), partial_fit_steps=20, random_state=0
    )
    model.partial_fit(scaled_X[:64], scaled_y[:64])
    benchmark(lambda: model.partial_fit(scaled_X[:64], scaled_y[:64]))
    assert np.isfinite(model.predict(scaled_X[:4])).all()


def test_bench_quantile_regression_fit(benchmark, data):
    X, y = data
    # The Witt-Wastage hot path: one LP per quantile per refit.
    model = benchmark(lambda: QuantileRegressor(quantile=0.9).fit(X[:256], y[:256]))
    assert model.coef_[0] == pytest.approx(2.0, rel=0.1)
