"""Tests for splits, K-fold, parameter grids, and grid search."""

import numpy as np
import pytest

from repro.ml.metrics import mean_absolute_error
from repro.ml.model_selection import (
    GridSearchCV,
    KFold,
    ParameterGrid,
    cross_val_score,
    train_test_split,
)
from repro.ml.sgd import RecursiveLeastSquares
from repro.ml.tree import DecisionTreeRegressor


def make_data(n=60, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 10, size=(n, 1))
    y = 2.0 * X[:, 0] + rng.normal(0, 0.5, n)
    return X, y


class TestTrainTestSplit:
    def test_sizes(self):
        X, y = make_data(n=100)
        Xtr, Xte, ytr, yte = train_test_split(X, y, test_size=0.2)
        assert Xte.shape[0] == 20 and Xtr.shape[0] == 80
        assert ytr.shape[0] == 80 and yte.shape[0] == 20

    def test_disjoint_and_complete(self):
        X, y = make_data(n=50)
        y = np.arange(50, dtype=float)  # unique labels to track identity
        _, _, ytr, yte = train_test_split(X, y, test_size=0.3, random_state=1)
        assert sorted(np.concatenate([ytr, yte]).tolist()) == list(range(50))

    def test_reproducible(self):
        X, y = make_data()
        a = train_test_split(X, y, random_state=42)[3]
        b = train_test_split(X, y, random_state=42)[3]
        assert np.array_equal(a, b)

    def test_no_shuffle_is_prefix_split(self):
        X, y = make_data(n=10)
        _, Xte, _, _ = train_test_split(X, y, test_size=0.2, shuffle=False)
        assert np.array_equal(Xte, X[:2])

    @pytest.mark.parametrize("ts", [0.0, 1.0, -0.5])
    def test_invalid_test_size(self, ts):
        X, y = make_data(n=10)
        with pytest.raises(ValueError, match="test_size"):
            train_test_split(X, y, test_size=ts)


class TestKFold:
    def test_covers_all_indices_exactly_once(self):
        X = np.zeros((17, 1))
        seen = np.concatenate([test for _, test in KFold(4).split(X)])
        assert sorted(seen.tolist()) == list(range(17))

    def test_train_test_disjoint(self):
        X = np.zeros((20, 1))
        for train, test in KFold(5).split(X):
            assert not set(train) & set(test)

    def test_fold_size_balance(self):
        X = np.zeros((10, 1))
        sizes = [len(test) for _, test in KFold(3).split(X)]
        assert max(sizes) - min(sizes) <= 1

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="cannot split"):
            list(KFold(5).split(np.zeros((3, 1))))

    def test_invalid_n_splits(self):
        with pytest.raises(ValueError, match="n_splits"):
            KFold(1)

    def test_shuffle_reproducible(self):
        X = np.zeros((12, 1))
        a = [t.tolist() for _, t in KFold(3, shuffle=True, random_state=0).split(X)]
        b = [t.tolist() for _, t in KFold(3, shuffle=True, random_state=0).split(X)]
        assert a == b


class TestParameterGrid:
    def test_cartesian_product(self):
        grid = ParameterGrid({"a": [1, 2], "b": ["x", "y", "z"]})
        combos = list(grid)
        assert len(combos) == len(grid) == 6
        assert {"a": 1, "b": "z"} in combos

    def test_empty_grid_yields_one_empty_dict(self):
        assert list(ParameterGrid({})) == [{}]
        assert len(ParameterGrid({})) == 1

    def test_rejects_scalar_values(self):
        with pytest.raises(ValueError, match="sequences"):
            ParameterGrid({"a": 3})

    def test_rejects_empty_candidate_list(self):
        with pytest.raises(ValueError, match="empty"):
            ParameterGrid({"a": []})

    def test_deterministic_order(self):
        g = ParameterGrid({"b": [1, 2], "a": [3]})
        assert list(g) == [{"a": 3, "b": 1}, {"a": 3, "b": 2}]


class TestCrossValScore:
    def test_returns_one_score_per_fold(self):
        X, y = make_data()
        scores = cross_val_score(RecursiveLeastSquares(ridge=0.1), X, y, cv=4)
        assert scores.shape == (4,)
        assert np.all(scores >= 0)

    def test_custom_scoring(self):
        X, y = make_data()
        scores = cross_val_score(
            RecursiveLeastSquares(), X, y, cv=3, scoring=mean_absolute_error
        )
        assert np.all(scores < 2.0)

    def test_estimator_not_mutated(self):
        X, y = make_data()
        est = RecursiveLeastSquares()
        cross_val_score(est, X, y, cv=3)
        assert not hasattr(est, "coef_")


class TestGridSearchCV:
    def test_finds_better_depth(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, size=(120, 1))
        y = (X[:, 0] > 0.5).astype(float)  # depth-1 suffices; deep overfits noise
        gs = GridSearchCV(
            DecisionTreeRegressor(random_state=0),
            {"max_depth": [1, 2, 8]},
            cv=4,
        ).fit(X, y + rng.normal(0, 0.05, 120))
        assert gs.best_params_["max_depth"] in (1, 2)

    def test_best_estimator_refit_on_all_data(self):
        X, y = make_data()
        gs = GridSearchCV(
            RecursiveLeastSquares(), {"ridge": [0.01, 1.0]}, cv=3
        ).fit(X, y)
        assert hasattr(gs.best_estimator_, "coef_")
        assert np.isfinite(gs.predict(X[:3])).all()

    def test_cv_results_complete(self):
        X, y = make_data()
        gs = GridSearchCV(
            RecursiveLeastSquares(), {"ridge": [0.1, 1.0, 10.0]}, cv=3
        ).fit(X, y)
        assert len(gs.cv_results_) == 3
        best = min(gs.cv_results_, key=lambda r: r["mean_score"])
        assert best["params"] == gs.best_params_

    def test_small_sample_degrades_to_insample(self):
        # Two samples cannot be 3-fold split; search must still work.
        gs = GridSearchCV(RecursiveLeastSquares(), {"ridge": [0.1, 1.0]}, cv=3)
        gs.fit([[1.0], [2.0]], [1.0, 2.0])
        assert "ridge" in gs.best_params_

    def test_requires_estimator(self):
        with pytest.raises(ValueError, match="estimator"):
            GridSearchCV(None, {"alpha": [1.0]}).fit([[1.0], [2.0]], [1.0, 2.0])
