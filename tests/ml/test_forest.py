"""Tests for the random-forest regressor."""

import numpy as np
import pytest

from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import DecisionTreeRegressor


def make_data(n=150, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 4, size=(n, 2))
    y = np.sin(X[:, 0]) * 3 + X[:, 1] ** 2 + rng.normal(0, 0.2, n)
    return X, y


class TestRandomForest:
    def test_fits_nonlinear_signal(self):
        X, y = make_data()
        m = RandomForestRegressor(n_estimators=30, random_state=0).fit(X, y)
        assert m.score(X, y) > 0.9

    def test_prediction_is_mean_of_trees(self):
        X, y = make_data(n=60)
        m = RandomForestRegressor(n_estimators=7, random_state=1).fit(X, y)
        per_tree = np.stack([t.predict(X[:10]) for t in m.estimators_])
        assert np.allclose(m.predict(X[:10]), per_tree.mean(axis=0))

    def test_deterministic_given_seed(self):
        X, y = make_data(n=80)
        a = RandomForestRegressor(n_estimators=10, random_state=5).fit(X, y).predict(X)
        b = RandomForestRegressor(n_estimators=10, random_state=5).fit(X, y).predict(X)
        assert np.array_equal(a, b)

    def test_seed_changes_model(self):
        X, y = make_data(n=80)
        a = RandomForestRegressor(n_estimators=10, random_state=1).fit(X, y).predict(X)
        b = RandomForestRegressor(n_estimators=10, random_state=2).fit(X, y).predict(X)
        assert not np.array_equal(a, b)

    def test_predictions_within_target_range(self):
        X, y = make_data(n=100)
        m = RandomForestRegressor(n_estimators=15, random_state=0).fit(X, y)
        rng = np.random.default_rng(9)
        p = m.predict(rng.uniform(0, 4, size=(30, 2)))
        assert p.min() >= y.min() - 1e-9 and p.max() <= y.max() + 1e-9

    def test_no_bootstrap_full_features_equals_single_tree_average(self):
        # Without bootstrap and without feature subsampling every tree is
        # identical, so the forest must equal a single tree.
        X, y = make_data(n=60)
        forest = RandomForestRegressor(
            n_estimators=5, bootstrap=False, max_features=None, random_state=0
        ).fit(X, y)
        tree = DecisionTreeRegressor(random_state=0).fit(X, y)
        assert np.allclose(forest.predict(X), tree.predict(X))

    def test_oob_score_reasonable(self):
        X, y = make_data(n=200)
        m = RandomForestRegressor(
            n_estimators=40, oob_score=True, random_state=0
        ).fit(X, y)
        assert 0.5 < m.oob_score_ <= 1.0

    def test_invalid_n_estimators(self):
        with pytest.raises(ValueError, match="n_estimators"):
            RandomForestRegressor(n_estimators=0).fit([[1.0]], [1.0])

    def test_more_trees_reduce_oob_variance(self):
        X, y = make_data(n=150, seed=4)
        scores_small = [
            RandomForestRegressor(n_estimators=3, oob_score=True, random_state=s)
            .fit(X, y)
            .oob_score_
            for s in range(5)
        ]
        scores_big = [
            RandomForestRegressor(n_estimators=40, oob_score=True, random_state=s)
            .fit(X, y)
            .oob_score_
            for s in range(5)
        ]
        assert np.var(scores_big) < np.var(scores_small)


def reference_tree_predict(tree, X):
    """Row-by-row descent of one tree's node arrays."""
    out = np.empty(X.shape[0])
    for i in range(X.shape[0]):
        node = 0
        while tree.left_[node] >= 0:
            go_left = X[i, tree.feature_[node]] <= tree.threshold_[node]
            node = tree.left_[node] if go_left else tree.right_[node]
        out[i] = tree.value_[node]
    return out


def reference_forest_predict(forest, X):
    """The per-tree loop the single vectorised descent replaced."""
    out = np.zeros(X.shape[0], dtype=np.float64)
    for tree in forest.estimators_:
        out += reference_tree_predict(tree, X)
    out /= len(forest.estimators_)
    return out


class TestSingleDescentMatchesPerTreeLoop:
    @pytest.mark.parametrize(
        "params",
        [
            dict(),
            dict(max_depth=1),
            dict(max_depth=3),
            dict(max_features=0.5),
            dict(max_features="sqrt", max_depth=4),
            dict(min_samples_leaf=3, bootstrap=False),
        ],
    )
    @pytest.mark.parametrize("d", [1, 3])
    def test_bit_for_bit(self, params, d):
        rng = np.random.default_rng(d)
        # A coarse grid gives tied feature values (and ties on the queries).
        X = np.round(rng.uniform(0, 4, size=(70, d)), 1)
        y = np.sin(X[:, 0]) * 3 + X[:, -1] ** 2 + rng.normal(0, 0.2, 70)
        m = RandomForestRegressor(n_estimators=9, random_state=7, **params).fit(X, y)
        queries = np.vstack([X[:25], np.round(rng.uniform(-1, 5, size=(25, d)), 1)])
        assert np.array_equal(m.predict(queries), reference_forest_predict(m, queries))
        for tree in m.estimators_:
            assert np.array_equal(tree.predict(queries), reference_tree_predict(tree, queries))

    @pytest.mark.parametrize("n_train", [1, 2, 5])
    def test_tiny_training_sets_and_one_row_queries(self, n_train):
        rng = np.random.default_rng(n_train)
        X = rng.uniform(0, 10, size=(n_train, 1))
        y = rng.uniform(100, 200, size=n_train)
        m = RandomForestRegressor(n_estimators=20, random_state=1).fit(X, y)
        for q in ([[X[0, 0]]], [[-1.0]], [[11.0]]):
            q = np.array(q)
            assert np.array_equal(m.predict(q), reference_forest_predict(m, q))

    def test_constant_targets_give_single_leaves(self):
        X = np.arange(12, dtype=float).reshape(-1, 1)
        m = RandomForestRegressor(n_estimators=5, random_state=0).fit(X, np.full(12, 3.5))
        assert all(t.n_leaves_ == 1 for t in m.estimators_)
        assert np.array_equal(m.predict(X), np.full(12, 3.5))
