"""CART regression trees.

The building block for :class:`repro.ml.forest.RandomForestRegressor`,
one of Sizey's four model classes ("makes our method more resistant to
overfitting, especially when there are not many historical task
executions", paper §II-B).

Growing.  :func:`_grow_trees` is a standard variance-reduction CART
grower that grows a list of trees together, one depth level at a time:
the random forest passes all of its bootstrap samples, a single tree
passes one.  Every open node of every tree at a level goes through one
set of array operations: the all-equal test, a stable per-node sort of
each candidate feature, a row-wise ``cumsum`` over a padded
(node, feature) x position matrix, the squared error of every cut (cuts
between tied values, and cuts that leave fewer than ``min_samples_leaf``
samples on a side, are masked to ``inf``), the first-minimum cut, its
midpoint threshold (the lower value when the midpoint rounds up to the
upper one), the strict ``gain > 0`` test, and one stable
partition of all samples into child pairs.  Rows are padded only to the
widest node of a group of similar sizes, so padding stays within a small
multiple of the real samples.

The result is bit-for-bit the one of a recursive, node-by-node grower
(``tests/ml/test_tree.py`` keeps one as the reference):

- Every elementwise expression keeps its form and evaluation order;
  features are tried in order, and a later one wins only with a strictly
  larger gain.  A row's ``cumsum`` is a running sum, so padding after a
  node's last sample leaves its prefix sums unchanged.
- Two per-node reductions round in a way that depends on the call: the
  node total ``ys.sum()`` (numpy's pairwise sum) and ``ys @ ys`` (a BLAS
  dot).  Both run once per node, as those same calls, on a contiguous
  run of exactly that node's samples in bootstrap order, which the
  stable partition preserves.  A segmented reduction (``reduceat``, an
  ``einsum`` dot) rounds differently and must not replace them.
- The node's squared error ``total_sq - total**2 / n`` is evaluated on
  Python floats: their ``**`` (C ``pow``) does not always round like
  numpy's ``square``.

Child pairs are numbered level by level (breadth-first).  With
``max_features`` below the number of features, each node's feature draw
happens in that level order too, so such trees are deterministic per
seed but not those of a depth-first grower.

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


#: Split search counts rows narrower than this as this wide.
_MIN_WIDTH = 8
#: Most cells (rows x width) in one padded group.  It bounds the split
#: search's temporaries: at 4096, a 20-tree fit on 64 rows raised the
#: process's peak RSS by ~0.7 MB more than at 2048.
_MAX_CELLS = 2048


def _size_groups(n: np.ndarray):
    """Yield the row selections of the padded groups for row sizes ``n``.

    Widest first, a group takes every row wider than half its widest
    one (sizes floored at ``_MIN_WIDTH``), so padding stays below the
    real samples, and no group exceeds ``_MAX_CELLS`` cells.
    """
    lo = max(int(n.min()), _MIN_WIDTH)
    hi = max(int(n.max()), _MIN_WIDTH)
    if 2 * lo > hi and hi * n.shape[0] <= _MAX_CELLS:  # one group
        yield slice(None)
        return
    order = n.argsort(kind="stable")
    sizes = np.maximum(n[order], _MIN_WIDTH)
    b = n.shape[0]
    while b:
        width = int(sizes[b - 1])
        half = int(sizes.searchsorted(width // 2, "right"))
        a = max(half, b - max(1, _MAX_CELLS // width))
        yield order[a:b]
        b = a


def _search_splits(
    X: np.ndarray,
    y: np.ndarray,
    start: np.ndarray,
    count: np.ndarray,
    feats: np.ndarray,
    total: np.ndarray,
    total_sq: np.ndarray,
    parent_sse: np.ndarray,
    min_samples_leaf: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best ``(gain, feature, threshold)`` of each node.

    Node ``j`` owns rows ``start[j]:start[j] + count[j]`` of ``X``/``y``
    and tries the features ``feats[j]`` in order.  ``gain`` is the
    reduction in squared error; the node splits only if it is > 0.
    """
    n_nodes, k = feats.shape
    if k > 1:  # one row per (node, candidate feature) pair, node-major
        start, count, total, total_sq, parent_sse = (
            np.repeat(a, k) for a in (start, count, total, total_sq, parent_sse)
        )
    row_f = feats.ravel()
    gain = np.empty(n_nodes * k)
    thr = np.empty(n_nodes * k)
    lo = min_samples_leaf - 1
    for g in _size_groups(count):
        n = count[g]
        width = int(n.max())
        pos = np.arange(width)
        real = pos < n[:, None]
        idx = np.where(real, start[g][:, None] + pos, 0)
        # Padding sorts after every (finite) value.
        x = np.where(real, X[idx, row_f[g][:, None]], np.inf)
        order = x.argsort(axis=1, kind="stable")
        r = np.arange(n.shape[0])[:, None]
        xs = x[r, order]
        ys = y[idx[r, order]]
        # Cut i separates sorted positions i and i + 1 (left child size
        # i + 1); min_samples_leaf on both sides bounds the cuts to
        # lo <= i < n - min_samples_leaf.
        hi = width - min_samples_leaf
        left_sum = ys.cumsum(axis=1)[:, lo:hi]
        left_sq = (ys * ys).cumsum(axis=1)[:, lo:hi]
        left_n = pos[lo + 1 : hi + 1].astype(np.float64)
        # Past a row's last legal cut, a dummy divisor (masked below).
        right_n = np.maximum(n[:, None] - left_n, 1.0)
        right_sum = total[g][:, None] - left_sum
        right_sq = total_sq[g][:, None] - left_sq
        sse = (
            left_sq
            - left_sum**2 / left_n
            + right_sq
            - right_sum**2 / right_n
        )
        legal = (pos[lo:hi] < (n - min_samples_leaf)[:, None]) & (
            xs[:, lo + 1 : hi + 1] != xs[:, lo:hi]
        )
        sse = np.where(legal, sse, np.inf)
        i = sse.argmin(axis=1)[:, None]
        gain[g] = parent_sse[g] - sse[r, i][:, 0]
        below, above = xs[r, lo + i][:, 0], xs[r, lo + i + 1][:, 0]
        mid = 0.5 * (below + above)
        # As in scikit-learn: a midpoint that rounds up to the upper value
        # (or overflows) would send every sample left, so cut at the lower
        # value instead.  Every legal cut then has two non-empty children.
        thr[g] = np.where((mid == above) | np.isinf(mid), below, mid)
    # The first feature with the largest positive gain wins.
    gain = np.where(gain > 0.0, gain, -np.inf).reshape(n_nodes, k)
    q = gain.argmax(axis=1)
    j = np.arange(n_nodes)
    return gain[j, q], feats[j, q], thr.reshape(n_nodes, k)[j, q]


def _grow_trees(
    trees: list["DecisionTreeRegressor"],
    X: np.ndarray,
    y: np.ndarray,
    samples: list[np.ndarray],
) -> tuple[np.ndarray, ...]:
    """Grow ``trees[t]`` on the rows ``samples[t]`` of ``X`` and ``y``.

    The inputs are validated float64 arrays, and the trees share the
    hyper-parameters of ``trees[0]`` (already checked).  Each tree's
    feature draws use its own ``random_state``.  Returns each tree's node
    count and the trees' ``feature``, ``threshold``, ``left`` and
    ``value`` arrays concatenated in tree order.
    """
    proto = trees[0]
    d = X.shape[1]
    k = proto._n_features_to_use(d)
    # Only feature subsampling draws random numbers.
    rngs = [check_random_state(t.random_state) for t in trees] if k < d else None
    all_features = np.arange(d)[None, :]
    min_split, min_leaf = proto.min_samples_split, proto.min_samples_leaf
    max_depth = proto.max_depth
    depth = np.zeros(len(trees), dtype=np.intp)

    # The open nodes of a level, tree-major and in level order within a
    # tree.  Node j's samples are the run start[j]:start[j] + count[j]
    # of `rows`, in bootstrap order.
    rows = np.concatenate(samples)
    count = np.array([s.shape[0] for s in samples], dtype=np.intp)
    tree = np.arange(len(trees))
    levels = []  # (tree, count, value) of each level's nodes
    splits = []  # (node, feature, threshold, left child), by recorded position
    n_recorded = 0
    level = 0
    while True:
        m = tree.shape[0]
        depth[tree] = level
        start = np.zeros(m, dtype=np.intp)
        np.cumsum(count[:-1], out=start[1:])
        yl = y[rows]
        # The nodes that search for a split: enough samples, shallower
        # than max_depth, and targets not all equal to the first one.
        cand = count >= min_split
        if max_depth is not None and level >= max_depth:
            cand[:] = False
        if cand.any():
            owner = np.repeat(np.arange(m), count)
            differs = yl != yl[start[owner]]
            cand &= np.bincount(owner, weights=differs, minlength=m) > 0
        cand = cand.nonzero()[0]
        if rngs is None:
            feats = all_features.repeat(cand.shape[0], axis=0)
        else:
            feats = np.array(
                [rngs[t].choice(d, size=k, replace=False) for t in tree[cand].tolist()]
            )
        search = count[cand] >= 2 * min_leaf
        nodes, feats = cand[search], feats[search]
        searching = np.zeros(m, dtype=bool)
        searching[nodes] = True
        # Each node's total (a single sample is its own), and the sum of
        # squares and squared error of the searching ones.
        total, node_sq, parent_sse = [], [], []
        for a, n, s in zip(start.tolist(), count.tolist(), searching.tolist()):
            if n == 1:
                total.append(yl[a])
                continue
            ys = yl[a : a + n]
            node_sum = ys.sum()
            total.append(node_sum)
            if s:
                sq = float(ys @ ys)
                node_sq.append(sq)
                parent_sse.append(sq - float(node_sum) ** 2 / n)
        total = np.array(total)
        levels.append((tree, count, total / count))
        base, n_recorded = n_recorded, n_recorded + m
        if not nodes.shape[0]:
            break
        gain, f, thr = _search_splits(
            X[rows], yl, start[nodes], count[nodes], feats, total[nodes],
            np.array(node_sq), np.array(parent_sse), min_leaf,
        )
        split = gain > 0.0
        nodes = nodes[split]
        if not nodes.shape[0]:
            break
        f, thr = f[split], thr[split]
        # The next level records the child pairs in this order.
        pair = np.arange(nodes.shape[0])
        splits.append((base + nodes, f, thr, n_recorded + 2 * pair))
        # Stable partition: each child keeps its samples in parent order,
        # the left child's (x <= threshold) before the right child's.
        pair_of = np.full(m, -1, dtype=np.intp)
        pair_of[nodes] = pair
        keep = (pair_of[owner] >= 0).nonzero()[0]
        p = pair_of[owner[keep]]
        child = 2 * p + (X[rows[keep], f[p]] > thr[p])
        rows = rows[keep[child.argsort(kind="stable")]]
        count = np.bincount(child, minlength=2 * pair.shape[0])
        tree = np.repeat(tree[nodes], 2)
        level += 1

    tree, count, value = (np.concatenate(column) for column in zip(*levels))
    feature = np.full(n_recorded, -1, dtype=np.intp)
    threshold = np.zeros(n_recorded)
    left = np.full(n_recorded, -1, dtype=np.intp)
    # Each tree numbers its nodes in the order they were recorded.
    order = tree.argsort(kind="stable")
    sizes = np.bincount(tree, minlength=len(trees))
    if splits:
        at, f, thr, child = (np.concatenate(column) for column in zip(*splits))
        number = np.empty(n_recorded, dtype=np.intp)
        number[order] = np.arange(n_recorded) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        feature[at], threshold[at], left[at] = f, thr, number[child]
    count, value, feature, threshold, left = (
        a[order] for a in (count, value, feature, threshold, left)
    )
    right = np.where(left < 0, -1, left + 1)
    stops = np.cumsum(sizes).tolist()
    for t, (a, b) in enumerate(zip([0] + stops[:-1], stops)):
        grown = trees[t]
        grown.feature_ = feature[a:b]
        grown.threshold_ = threshold[a:b]
        grown.left_ = left[a:b]
        grown.right_ = right[a:b]
        grown.value_ = value[a:b]
        grown.n_node_samples_ = count[a:b]
        grown._depth = int(depth[t])
        grown.n_features_in_ = d
    return sizes, feature, threshold, left, value


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
        _grow_trees([self], X, y, [np.arange(X.shape[0])])
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
