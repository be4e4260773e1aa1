"""Tests for the CART regression tree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import DecisionTreeRegressor


class TestBestSplit:
    def test_obvious_split(self):
        X = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array([0.0, 0.0, 10.0, 10.0])
        m = DecisionTreeRegressor(max_depth=1).fit(X, y)
        assert m.feature_[0] == 0
        assert 1.0 < m.threshold_[0] < 10.0
        # SSE drops from 100 to 0: two pure children.
        assert m.value_[m.left_[0]] == 0.0 and m.value_[m.right_[0]] == 10.0
        assert m.n_node_samples_.tolist() == [4, 2, 2]

    def test_no_split_on_constant_feature(self):
        X = np.ones((4, 1))
        y = np.array([1.0, 2.0, 3.0, 4.0])
        m = DecisionTreeRegressor(max_depth=1).fit(X, y)
        assert m.feature_[0] == -1 and m.n_leaves_ == 1

    def test_min_samples_leaf_respected(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 0.0, 100.0])
        # With min_samples_leaf=2 the best cut (isolating the outlier) is
        # forbidden; only the middle cut remains legal.
        m = DecisionTreeRegressor(max_depth=1, min_samples_leaf=2).fit(X, y)
        assert m.feature_[0] == 0
        assert m.threshold_[0] == pytest.approx(1.5)


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


def reference_split(X, y, feature_idx, min_samples_leaf, total_sum=None):
    """The slice-based split search of the recursive grower.

    Returns (feature, threshold, score_gain); feature == -1 when no valid
    split exists.
    """
    n = y.shape[0]
    total_sq = float(y @ y)
    if total_sum is None:
        total_sum = float(y.sum())
    parent_sse = total_sq - total_sum**2 / n
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
        sse = left_sq - left_sum**2 / left_n + right_sq - right_sum**2 / right_n
        sse = np.where(xs[lo + 1 : hi + 1] != xs[lo:hi], sse, np.inf)
        i = int(sse.argmin())
        gain = parent_sse - float(sse[i])
        if gain > best_gain:
            best_feat = int(f)
            best_thr = float(0.5 * (xs[lo + i] + xs[lo + i + 1]))
            best_gain = gain
    return best_feat, best_thr, best_gain


def reference_grow(X, y, max_depth=None, min_samples_split=2, min_samples_leaf=1):
    """The recursive, depth-first grower (all features at every split).

    Returns the tree's preorder walk of (feature, threshold, value,
    n_node_samples), floats as ``float.hex`` so that -0.0 != 0.0, and
    its depth.
    """
    all_features = np.arange(X.shape[1])
    walk = []
    deepest = 0

    def grow(sample_idx, depth):
        nonlocal deepest
        deepest = max(deepest, depth)
        n = sample_idx.shape[0]
        node = len(walk)
        if n == 1:  # the mean of one sample is that sample
            walk.append((-1, (0.0).hex(), float(y[sample_idx[0]]).hex(), 1))
            return
        ys = y[sample_idx]
        total = ys.sum()
        walk.append((-1, (0.0).hex(), float(total / n).hex(), n))
        if (
            n < min_samples_split
            or (max_depth is not None and depth >= max_depth)
            or (ys == ys[0]).all()
        ):
            return
        Xs = X[sample_idx]
        f, thr, gain = reference_split(Xs, ys, all_features, min_samples_leaf, float(total))
        if f < 0 or gain <= 0.0:
            return
        walk[node] = (f, thr.hex(), walk[node][2], n)
        mask = Xs[:, f] <= thr
        grow(sample_idx[mask], depth + 1)
        grow(sample_idx[~mask], depth + 1)

    grow(np.arange(X.shape[0]), 0)
    return walk, deepest


def preorder(tree, node=0):
    """A fitted tree's walk in the format of :func:`reference_grow`."""
    out = [
        (
            int(tree.feature_[node]),
            float(tree.threshold_[node]).hex(),
            float(tree.value_[node]).hex(),
            int(tree.n_node_samples_[node]),
        )
    ]
    if tree.left_[node] >= 0:
        out += preorder(tree, tree.left_[node]) + preorder(tree, tree.right_[node])
    return out


def bootstrap_samples(n, n_estimators, random_state, bootstrap):
    """Each tree's rows, drawn as ``RandomForestRegressor.fit`` draws them."""
    seeds = np.random.default_rng(random_state).integers(0, 2**31 - 1, size=n_estimators)
    if not bootstrap or n == 1:
        return [np.arange(n)] * n_estimators
    return [np.random.default_rng(int(s)).integers(0, n, size=n) for s in seeds]


class TestLevelGrowerMatchesRecursiveReference:
    @given(
        n=st.integers(min_value=1, max_value=150),
        d=st.integers(min_value=1, max_value=3),
        min_samples_split=st.integers(min_value=2, max_value=6),
        min_samples_leaf=st.integers(min_value=1, max_value=5),
        max_depth=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
        bootstrap=st.booleans(),
        x_kind=st.sampled_from(["tied", "continuous"]),
        y_kind=st.sampled_from(["normal", "duplicated", "constant", "huge_offset"]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_tree_equals_the_reference(
        self, n, d, min_samples_split, min_samples_leaf, max_depth, bootstrap,
        x_kind, y_kind, seed,
    ):
        rng = np.random.default_rng(seed)
        if x_kind == "tied":
            X = rng.integers(0, 4, size=(n, d)).astype(float)
        else:
            X = rng.uniform(10, 5000, size=(n, d))
        if y_kind == "normal":
            y = rng.normal(size=n)
        elif y_kind == "duplicated":
            y = np.round(rng.uniform(0, 3, size=n))
        elif y_kind == "constant":
            y = np.full(n, 7.25)
        else:
            # A node's SSE is then a small difference of huge terms, so one
            # rounding step of total**2 (numpy's square and Python's **
            # round some squares differently) can change the tree.
            y = (rng.integers(2**25, 2**27) + rng.integers(-3, 4, size=n)).astype(float)
        params = dict(
            max_depth=max_depth,
            min_samples_split=min_samples_split,
            min_samples_leaf=min_samples_leaf,
        )
        forest = RandomForestRegressor(
            n_estimators=4, bootstrap=bootstrap, random_state=seed, **params
        ).fit(X, y)
        samples = bootstrap_samples(n, 4, seed, bootstrap)
        for tree, idx in zip(forest.estimators_, samples):
            walk, depth = reference_grow(X[idx], y[idx], **params)
            assert preorder(tree) == walk
            assert tree.depth_ == depth
        single = DecisionTreeRegressor(random_state=seed, **params).fit(X, y)
        walk, depth = reference_grow(X, y, **params)
        assert preorder(single) == walk
        assert single.depth_ == depth

    @pytest.mark.parametrize("d", [1, 2])
    def test_groups_split_at_the_cell_cap_match_the_reference(self, d):
        # 20 trees on 150 rows pad more cells per level than one group
        # of the split search may hold.
        rng = np.random.default_rng(d)
        X = rng.integers(0, 40, size=(150, d)).astype(float)
        y = rng.normal(size=150)
        forest = RandomForestRegressor(n_estimators=20, random_state=d).fit(X, y)
        for tree, idx in zip(forest.estimators_, bootstrap_samples(150, 20, d, True)):
            assert preorder(tree) == reference_grow(X[idx], y[idx])[0]

    def test_a_split_that_empties_a_child(self):
        # The midpoint of these adjacent floats rounds up to 1.0, so every
        # sample goes left and the right child is empty (its mean is nan);
        # without max_depth the same split would repeat forever.
        a = 1.0 - 2.0**-53
        X = np.array([[a], [1.0], [a], [1.0]])
        y = np.array([1.0, 5.0, 1.5, 6.0])
        with np.errstate(invalid="ignore"):
            tree = DecisionTreeRegressor(max_depth=3).fit(X, y)
            assert preorder(tree) == reference_grow(X, y, max_depth=3)[0]
            assert tree.n_node_samples_.tolist() == [4, 4, 0, 4, 0, 4, 0]
            with pytest.raises(ValueError, match="max_depth"):
                DecisionTreeRegressor().fit(X, y)

    @pytest.mark.parametrize(
        "x, y",
        [
            ([2, 3, 2, 1, 3, 3], [40124767, 40124769, 40124764, 40124766, 40124767, 40124766]),
            ([3, 2, 0, 0, 1, 0, 0], [59886485, 59886488, 59886483, 59886486, 59886488, 59886488, 59886486]),
        ],
    )
    def test_node_error_squares_the_sum_with_python_pow(self, x, y):
        # Found by search: squaring these node sums with numpy instead of
        # Python's ** changes the tree.
        X, y = np.array(x, dtype=float).reshape(-1, 1), np.array(y, dtype=float)
        tree = DecisionTreeRegressor(max_depth=2).fit(X, y)
        assert preorder(tree) == reference_grow(X, y, max_depth=2)[0]


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
        f, thr, gain = reference_best_split(X, y, feats, min_leaf)
        assert reference_split(X, y, feats, min_leaf) == (f, thr, gain)
        stump = DecisionTreeRegressor(max_depth=1, min_samples_leaf=min_leaf).fit(X, y)
        if gain > 0.0:
            assert (stump.feature_[0], stump.threshold_[0]) == (f, thr)
        else:
            assert stump.n_leaves_ == 1

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
