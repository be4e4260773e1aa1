"""Tests for the CART regression tree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.tree import DecisionTreeRegressor, _best_split


class TestBestSplit:
    def test_obvious_split(self):
        X = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array([0.0, 0.0, 10.0, 10.0])
        f, thr, gain = _best_split(X, y, np.array([0]), 1)
        assert f == 0
        assert 1.0 < thr < 10.0
        assert gain == pytest.approx(100.0)  # SSE drops from 100 to 0

    def test_no_split_on_constant_feature(self):
        X = np.ones((4, 1))
        y = np.array([1.0, 2.0, 3.0, 4.0])
        f, _, _ = _best_split(X, y, np.array([0]), 1)
        assert f == -1

    def test_min_samples_leaf_respected(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 0.0, 100.0])
        # With min_samples_leaf=2 the best cut (isolating the outlier) is
        # forbidden; only the middle cut remains legal.
        f, thr, _ = _best_split(X, y, np.array([0]), 2)
        assert f == 0
        assert thr == pytest.approx(1.5)


class TestDecisionTree:
    def test_memorises_distinct_points(self):
        X = np.arange(8, dtype=float).reshape(-1, 1)
        y = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
        m = DecisionTreeRegressor().fit(X, y)
        assert np.allclose(m.predict(X), y)

    def test_single_leaf_for_constant_target(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        y = np.full(10, 7.0)
        m = DecisionTreeRegressor().fit(X, y)
        assert m.n_leaves_ == 1
        assert m.predict([[100.0]])[0] == pytest.approx(7.0)

    def test_max_depth_limits_depth(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(200, 3))
        y = rng.normal(size=200)
        for depth in (1, 2, 4):
            m = DecisionTreeRegressor(max_depth=depth).fit(X, y)
            assert m.depth_ <= depth

    def test_stump_is_piecewise_two_values(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(100, 1))
        y = (X[:, 0] > 0.5).astype(float)
        m = DecisionTreeRegressor(max_depth=1).fit(X, y)
        assert len(np.unique(m.predict(X))) <= 2

    def test_step_function_learned_exactly(self):
        X = np.linspace(0, 1, 50).reshape(-1, 1)
        y = np.where(X[:, 0] < 0.5, 2.0, 8.0)
        m = DecisionTreeRegressor(max_depth=1).fit(X, y)
        assert m.predict([[0.1]])[0] == pytest.approx(2.0)
        assert m.predict([[0.9]])[0] == pytest.approx(8.0)

    def test_min_samples_leaf_enforced_in_tree(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(size=(64, 2))
        y = rng.normal(size=64)
        m = DecisionTreeRegressor(min_samples_leaf=8).fit(X, y)
        leaf_sizes = m.n_node_samples_[m.left_ < 0]
        assert min(leaf_sizes) >= 8

    def test_predictions_are_leaf_means(self):
        # Every prediction must equal the mean of some training subset, so
        # predictions lie within [min(y), max(y)].
        rng = np.random.default_rng(3)
        X = rng.uniform(size=(100, 2))
        y = rng.uniform(5, 6, size=100)
        m = DecisionTreeRegressor(max_depth=4).fit(X, y)
        p = m.predict(rng.uniform(size=(50, 2)))
        assert p.min() >= 5.0 - 1e-9 and p.max() <= 6.0 + 1e-9

    def test_invalid_params(self):
        with pytest.raises(ValueError, match="min_samples_split"):
            DecisionTreeRegressor(min_samples_split=1).fit([[1.0]], [1.0])
        with pytest.raises(ValueError, match="min_samples_leaf"):
            DecisionTreeRegressor(min_samples_leaf=0).fit([[1.0]], [1.0])
        with pytest.raises(ValueError, match="max_depth"):
            DecisionTreeRegressor(max_depth=0).fit([[1.0]], [1.0])
        with pytest.raises(ValueError, match="max_features"):
            DecisionTreeRegressor(max_features="bogus").fit([[1.0], [2.0]], [1.0, 2.0])

    def test_max_features_variants(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(size=(50, 4))
        y = X @ np.array([1.0, 2.0, 3.0, 4.0])
        for mf in (None, "sqrt", "log2", 2, 0.5):
            m = DecisionTreeRegressor(max_features=mf, random_state=0).fit(X, y)
            assert np.isfinite(m.predict(X)).all()

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(size=(80, 3))
        y = rng.normal(size=80)
        p1 = DecisionTreeRegressor(max_features="sqrt", random_state=9).fit(X, y).predict(X)
        p2 = DecisionTreeRegressor(max_features="sqrt", random_state=9).fit(X, y).predict(X)
        assert np.array_equal(p1, p2)

    @given(st.integers(min_value=2, max_value=30))
    @settings(max_examples=25, deadline=None)
    def test_fitting_never_exceeds_target_range(self, n):
        rng = np.random.default_rng(n)
        X = rng.uniform(size=(n, 2))
        y = rng.normal(size=n)
        m = DecisionTreeRegressor(max_depth=3).fit(X, y)
        p = m.predict(X)
        assert p.min() >= y.min() - 1e-9
        assert p.max() <= y.max() + 1e-9

    def test_deeper_trees_fit_no_worse_in_sample(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(size=(120, 2))
        y = np.sin(4 * X[:, 0]) + rng.normal(0, 0.1, 120)
        errs = []
        for depth in (1, 3, 6, None):
            m = DecisionTreeRegressor(max_depth=depth).fit(X, y)
            errs.append(float(np.mean((m.predict(X) - y) ** 2)))
        assert errs == sorted(errs, reverse=True)


def reference_best_split(X, y, feature_idx, min_samples_leaf):
    """The mask-based split search the slice-based one replaced."""
    n = y.shape[0]
    total_sq = float(y @ y)
    total_sum = float(y.sum())
    parent_sse = total_sq - total_sum**2 / n
    best_feat, best_thr, best_gain = -1, 0.0, 0.0
    for f in feature_idx:
        col = X[:, f]
        order = np.argsort(col, kind="stable")
        xs, ys = col[order], y[order]
        csum, csq = np.cumsum(ys), np.cumsum(ys * ys)
        pos = np.arange(1, n)
        valid = (xs[1:] != xs[:-1]) & (pos >= min_samples_leaf) & (
            n - pos >= min_samples_leaf
        )
        if not np.any(valid):
            continue
        left_n = pos[valid].astype(np.float64)
        right_n = n - left_n
        left_sum, left_sq = csum[:-1][valid], csq[:-1][valid]
        right_sum, right_sq = total_sum - left_sum, total_sq - left_sq
        sse = left_sq - left_sum**2 / left_n + right_sq - right_sum**2 / right_n
        i = int(np.argmin(sse))
        gain = parent_sse - float(sse[i])
        if gain > best_gain:
            where = np.flatnonzero(valid)[i]
            best_feat = int(f)
            best_thr = float(0.5 * (xs[where] + xs[where + 1]))
            best_gain = gain
    return best_feat, best_thr, best_gain


def walk_depth(tree, node=0):
    if tree.left_[node] < 0:
        return 0
    return 1 + max(walk_depth(tree, tree.left_[node]), walk_depth(tree, tree.right_[node]))


class TestArrayLayout:
    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_split_search_matches_mask_reference(self, n, d, min_leaf, seed):
        rng = np.random.default_rng(seed)
        # Few distinct values: ties between neighbours and whole columns.
        X = rng.integers(0, 4, size=(n, d)).astype(float)
        y = rng.normal(size=n)
        feats = np.arange(d)
        assert _best_split(X, y, feats, min_leaf) == reference_best_split(
            X, y, feats, min_leaf
        )

    @pytest.mark.parametrize("max_depth", [None, 1, 3])
    def test_arrays_describe_a_binary_tree(self, max_depth):
        rng = np.random.default_rng(8)
        X = rng.uniform(size=(90, 2))
        y = rng.normal(size=90)
        m = DecisionTreeRegressor(max_depth=max_depth).fit(X, y)
        internal = m.left_ >= 0
        assert np.array_equal(m.right_[internal], m.left_[internal] + 1)
        assert np.all(m.right_[~internal] == -1) and np.all(m.feature_[~internal] == -1)
        # Children hold their parent's samples between them.
        kids = m.n_node_samples_[m.left_[internal]] + m.n_node_samples_[m.right_[internal]]
        assert np.array_equal(kids, m.n_node_samples_[internal])
        assert m.n_node_samples_[0] == 90
        assert m.depth_ == walk_depth(m)
        if max_depth is not None:
            assert m.depth_ <= max_depth
        assert m.n_leaves_ == int((~internal).sum())

    def test_one_row_fit_and_predict(self):
        m = DecisionTreeRegressor().fit([[2.0]], [5.0])
        assert m.depth_ == 0 and m.n_leaves_ == 1
        assert m.predict([[-3.0]]).tolist() == [5.0]
        assert m.predict([[2.0], [9.0]]).tolist() == [5.0, 5.0]

    def test_ties_go_left_of_the_threshold(self):
        X = np.array([[1.0], [1.0], [2.0], [2.0]])
        m = DecisionTreeRegressor().fit(X, [1.0, 1.0, 9.0, 9.0])
        assert m.threshold_[0] == 1.5
        assert m.predict([[1.5], [1.5000001]]).tolist() == [1.0, 9.0]
