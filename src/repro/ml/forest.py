"""Random forest regression: bagged CART trees.

One of Sizey's four model classes.  The forest averages trees grown on
bootstrap samples of the training set.  ``max_features`` defaults to
1.0 (every feature at every split, the usual choice for regression);
below that, per-node feature subsampling further decorrelates the
trees.  Sizey's pools use the default, on a single feature.

``fit`` draws every tree's bootstrap sample first, then grows all trees
together, one depth level at a time (:func:`repro.ml.tree._grow_trees`).
The trees are bit-for-bit those that growing each tree on its own would
give.  With ``max_features`` below 1.0, each tree draws the features of
its nodes in level order, so such forests are deterministic per seed
but differ from depth-first growth.

After fitting, the trees' node arrays are concatenated into one node
table, so ``predict`` walks every (tree, row) pair down together — one
vectorised step per level of the deepest tree — instead of querying the
trees one by one.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import (
    BaseEstimator,
    RegressorMixin,
    check_array,
    check_is_fitted,
    check_random_state,
    check_X_y,
)
from repro.ml.tree import (
    DecisionTreeRegressor,
    _descend,
    _descent_table,
    _grow_trees,
)

__all__ = ["RandomForestRegressor"]


class RandomForestRegressor(BaseEstimator, RegressorMixin):
    """Bootstrap-aggregated regression trees.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_depth, min_samples_split, min_samples_leaf, max_features:
        Passed through to each :class:`DecisionTreeRegressor`.
    bootstrap:
        Sample the training set with replacement per tree (classic
        bagging).  When false, every tree sees the full data and only
        feature subsampling decorrelates them.
    oob_score:
        When true (and bootstrapping), compute the out-of-bag R^2 after
        fitting, stored as ``oob_score_``.
    random_state:
        Seed for bootstrap and per-tree feature sampling.
    """

    def __init__(
        self,
        n_estimators: int = 50,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = 1.0,
        bootstrap: bool = True,
        oob_score: bool = False,
        random_state: int | None = 0,
    ) -> None:
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.oob_score = oob_score
        self.random_state = random_state

    def fit(self, X, y) -> "RandomForestRegressor":
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        X, y = check_X_y(X, y)
        rng = check_random_state(self.random_state)
        n = X.shape[0]
        seeds = rng.integers(0, 2**31 - 1, size=self.n_estimators)
        sample_sets: list[np.ndarray] = []
        for s in range(self.n_estimators):
            # A bootstrap sample of one row can only draw that row.
            if self.bootstrap and n > 1:
                tree_rng = np.random.default_rng(int(seeds[s]))
                sample_sets.append(tree_rng.integers(0, n, size=n))
            else:
                sample_sets.append(np.arange(n))
        trees = [
            DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=int(seed),
            )
            for seed in seeds
        ]
        # The trees share their hyper-parameters, so one check covers them.
        trees[0]._check_params()
        sizes, feature, threshold, left, value = _grow_trees(trees, X, y, sample_sets)
        self.estimators_ = trees
        self.n_features_in_ = X.shape[1]
        # One descent table for all trees (see ``predict``).
        self._roots = np.cumsum(sizes) - sizes
        self._child, self._feature, self._threshold = _descent_table(
            feature, threshold, left, np.repeat(self._roots, sizes)
        )
        self._value = value
        self._depth = max(tree._depth for tree in trees)
        if self.oob_score and self.bootstrap:
            self._compute_oob(X, y, sample_sets)
        return self

    def _compute_oob(
        self, X: np.ndarray, y: np.ndarray, sample_sets: list[np.ndarray]
    ) -> None:
        from repro.ml.metrics import r2_score

        n = X.shape[0]
        preds = np.zeros(n)
        counts = np.zeros(n)
        for tree, idx in zip(self.estimators_, sample_sets):
            mask = np.ones(n, dtype=bool)
            mask[idx] = False
            if not mask.any():
                continue
            preds[mask] += tree.predict(X[mask])
            counts[mask] += 1
        covered = counts > 0
        if covered.sum() < 2:
            self.oob_score_ = float("nan")
            return
        self.oob_score_ = r2_score(y[covered], preds[covered] / counts[covered])

    def predict(self, X) -> np.ndarray:
        check_is_fitted(self, ["estimators_"])
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features, model was fitted with "
                f"{self.n_features_in_}"
            )
        n_trees = len(self.estimators_)
        leaves = _descend(
            X, self._roots, self._child, self._feature, self._threshold, self._depth
        )
        per_tree = self._value[leaves].reshape(n_trees, X.shape[0])
        # Sum tree by tree in order (a pairwise sum would round
        # differently); + 0.0 gives the 0.0 that summing into zeros gives
        # when every tree predicts -0.0.
        total = np.add.accumulate(per_tree, axis=0)[-1] + 0.0
        return total / n_trees
