"""CART regression trees.

The building block for :class:`repro.ml.forest.RandomForestRegressor`,
one of Sizey's four model classes ("makes our method more resistant to
overfitting, especially when there are not many historical task
executions", paper §II-B).

The implementation is a standard variance-reduction CART grower.  Split
search is fully vectorised per (node, feature): candidate thresholds are
midpoints between consecutive sorted unique values, and the sum of child
variances is computed with cumulative sums in O(n) per feature, no Python
inner loop — the hot path the HPC guide tells us to vectorise.

A fitted tree is a set of flat node arrays (``feature_``, ``threshold_``,
``left_``, ``right_``, ``value_``, ``n_node_samples_``; leaves have
``left_ == right_ == -1``).  The children of a split are allocated as a
pair, so ``right_ == left_ + 1``.  Prediction descends all rows at once,
one vectorised step per tree level (:func:`_descend`); the random forest
runs the same descent over all of its trees together.
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

__all__ = ["DecisionTreeRegressor"]


def _descent_table(
    feature: np.ndarray,
    threshold: np.ndarray,
    left: np.ndarray,
    offset: np.ndarray | int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(child, feature, threshold)`` arrays for :func:`_descend`.

    ``offset`` shifts child indices when several trees' nodes are
    concatenated into one table.  Leaves point to themselves with an
    infinite threshold, so a row that reached its leaf stays there.
    """
    leaf = left < 0
    child = np.where(leaf, np.arange(left.shape[0]), left + offset)
    return child, np.where(leaf, 0, feature), np.where(leaf, np.inf, threshold)


def _descend(
    X: np.ndarray,
    roots: np.ndarray,
    child: np.ndarray,
    feature: np.ndarray,
    threshold: np.ndarray,
    depth: int,
) -> np.ndarray:
    """Node index reached by every (root, row) pair after ``depth`` levels.

    The result is root-major: entry ``r * n + i`` is row ``i`` under root
    ``r``.  Splits send ``x <= threshold`` to ``child`` and the rest to
    ``child + 1``.
    """
    n, d = X.shape
    node = np.repeat(roots, n)
    if d == 1:  # every split tests column 0: fetch the values once
        x = np.tile(X[:, 0], roots.shape[0])
    else:
        flat = X.ravel()
        base = np.tile(np.arange(0, n * d, d), roots.shape[0])
    for _ in range(depth):
        if d > 1:
            x = flat[base + feature[node]]
        node = child[node] + (x > threshold[node])
    return node


def _best_split(
    X: np.ndarray,
    y: np.ndarray,
    feature_idx: np.ndarray,
    min_samples_leaf: int,
    total_sum: float | None = None,
) -> tuple[int, float, float]:
    """Return (feature, threshold, score_gain) of the best split.

    ``score_gain`` is the reduction in total squared error; returns
    feature == -1 when no valid split exists.  ``total_sum`` is
    ``y.sum()`` when the caller already has it.
    """
    n = y.shape[0]
    total_sq = float(y @ y)
    if total_sum is None:
        total_sum = float(y.sum())
    parent_sse = total_sq - total_sum**2 / n
    # Cut i separates sorted positions i and i + 1 (left child size
    # i + 1); min_samples_leaf on both sides bounds the cuts to a slice.
    lo, hi = min_samples_leaf - 1, n - min_samples_leaf
    if lo >= hi:
        return -1, 0.0, 0.0
    left_n = np.arange(lo + 1, hi + 1, dtype=np.float64)
    right_n = n - left_n

    best_feat, best_thr, best_gain = -1, 0.0, 0.0
    for f in feature_idx:
        col = X[:, f]
        order = col.argsort(kind="stable")
        xs = col[order]
        ys = y[order]
        left_sum = ys.cumsum()[lo:hi]
        left_sq = (ys * ys).cumsum()[lo:hi]
        right_sum = total_sum - left_sum
        right_sq = total_sq - left_sq
        sse = (
            left_sq
            - left_sum**2 / left_n
            + right_sq
            - right_sum**2 / right_n
        )
        # Only cuts between distinct values are candidates; the others
        # can never be the (first) minimum.
        sse = np.where(xs[lo + 1 : hi + 1] != xs[lo:hi], sse, np.inf)
        i = int(sse.argmin())
        gain = parent_sse - float(sse[i])
        if gain > best_gain:
            best_feat = int(f)
            best_thr = float(0.5 * (xs[lo + i] + xs[lo + i + 1]))
            best_gain = gain
    return best_feat, best_thr, best_gain


class DecisionTreeRegressor(BaseEstimator, RegressorMixin):
    """CART regression tree minimising squared error.

    Parameters
    ----------
    max_depth:
        Maximum depth (``None`` = grow until pure / size limits).
    min_samples_split:
        Minimum samples required to attempt a split.
    min_samples_leaf:
        Minimum samples in each child.
    max_features:
        Features examined per split: ``None`` (all), ``"sqrt"``,
        ``"log2"``, an int, or a float fraction.  Randomised selection is
        what decorrelates trees inside the random forest.
    random_state:
        Seed for the feature subsampling.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = None,
        random_state: int | None = 0,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state

    def _n_features_to_use(self, d: int) -> int:
        mf = self.max_features
        if mf is None:
            return d
        if isinstance(mf, str):
            if mf == "sqrt":
                return max(1, int(np.sqrt(d)))
            if mf == "log2":
                return max(1, int(np.log2(d)) if d > 1 else 1)
            raise ValueError(f"unknown max_features {mf!r}")
        if isinstance(mf, float):
            if not 0.0 < mf <= 1.0:
                raise ValueError(f"max_features fraction must be in (0,1], got {mf}")
            return max(1, int(mf * d))
        if isinstance(mf, int):
            if not 1 <= mf <= d:
                raise ValueError(f"max_features must be in [1, {d}], got {mf}")
            return mf
        raise ValueError(f"invalid max_features {mf!r}")

    def _check_params(self) -> None:
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be >= 1 or None")

    def fit(self, X, y) -> "DecisionTreeRegressor":
        self._check_params()
        X, y = check_X_y(X, y)
        return self._grow(X, y)

    def _grow(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        """Fit on validated float64 inputs (``_check_params`` already ran)."""
        d = X.shape[1]
        k = self._n_features_to_use(d)
        # Only feature subsampling draws random numbers.
        rng = check_random_state(self.random_state) if k < d else None
        min_split, min_leaf = self.min_samples_split, self.min_samples_leaf
        max_depth = self.max_depth
        all_features = np.arange(d)
        feature, threshold, left, value, n_samples = [-1], [0.0], [-1], [0.0], [0]
        deepest = 0

        def grow(node: int, sample_idx: np.ndarray, depth: int) -> None:
            nonlocal deepest
            deepest = max(deepest, depth)
            n = sample_idx.shape[0]
            n_samples[node] = n
            if n == 1:  # the mean of one sample is that sample
                value[node] = float(y[sample_idx[0]])
                return
            ys = y[sample_idx]
            total = ys.sum()
            value[node] = float(total / n)
            if (
                n < min_split
                or (max_depth is not None and depth >= max_depth)
                or (ys == ys[0]).all()
            ):
                return
            feats = all_features if rng is None else rng.choice(d, size=k, replace=False)
            Xs = X[sample_idx]
            f, thr, gain = _best_split(Xs, ys, feats, min_leaf, float(total))
            if f < 0 or gain <= 0.0:
                return
            mask = Xs[:, f] <= thr
            pair = len(value)
            feature[node], threshold[node], left[node] = f, thr, pair
            feature.extend((-1, -1))
            threshold.extend((0.0, 0.0))
            left.extend((-1, -1))
            value.extend((0.0, 0.0))
            n_samples.extend((0, 0))
            grow(pair, sample_idx[mask], depth + 1)
            grow(pair + 1, sample_idx[~mask], depth + 1)

        grow(0, np.arange(X.shape[0]), 0)
        self.feature_ = np.array(feature, dtype=np.intp)
        self.threshold_ = np.array(threshold, dtype=np.float64)
        self.left_ = np.array(left, dtype=np.intp)
        self.right_ = np.where(self.left_ < 0, -1, self.left_ + 1)
        self.value_ = np.array(value, dtype=np.float64)
        self.n_node_samples_ = np.array(n_samples, dtype=np.intp)
        self._depth = deepest
        self.n_features_in_ = d
        return self

    def predict(self, X) -> np.ndarray:
        check_is_fitted(self, ["value_"])
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features, model was fitted with "
                f"{self.n_features_in_}"
            )
        table = _descent_table(self.feature_, self.threshold_, self.left_)
        root = np.zeros(1, dtype=np.intp)
        return self.value_[_descend(X, root, *table, self._depth)]

    @property
    def depth_(self) -> int:
        """Depth of the fitted tree (root = depth 0)."""
        check_is_fitted(self, ["value_"])
        return self._depth

    @property
    def n_leaves_(self) -> int:
        """Number of leaves of the fitted tree."""
        check_is_fitted(self, ["value_"])
        return int((self.left_ < 0).sum())
