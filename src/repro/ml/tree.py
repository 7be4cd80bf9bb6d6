"""CART regression tree (NumPy), fitted into flat node arrays.

Greedy variance-reduction splitting on a dense float matrix. Categorical
features are expected integer-coded and are split ordinally — a standard
simplification (LightGBM's default pre-4.0 behaviour) that fANOVA's
interval-marginal machinery also assumes.

A fitted tree is five arrays over its nodes in depth-first preorder:
``feature`` (−1 at a leaf), ``threshold`` (a row goes left iff
``x[feature] <= threshold``), ``left``, ``right`` (a leaf's are itself)
and ``value`` (the node's mean target). :class:`TreeStack` is the one
predict path of the tree, the forest and the boosted trees; fANOVA reads
the leaves' boxes off the same arrays.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class RegressionTree:
    """CART regression tree minimizing within-node variance.

    Parameters mirror sklearn's ``DecisionTreeRegressor`` where they
    share a name. ``depth`` is the deepest leaf's depth once fitted.
    """

    max_depth: int = 12
    min_samples_leaf: int = 1
    # the fitted node arrays
    feature: np.ndarray | None = field(init=False, default=None, repr=False)
    threshold: np.ndarray | None = field(init=False, default=None, repr=False)
    left: np.ndarray | None = field(init=False, default=None, repr=False)
    right: np.ndarray | None = field(init=False, default=None, repr=False)
    value: np.ndarray | None = field(init=False, default=None, repr=False)
    depth: int = field(init=False, default=0)

    def fit(self, X: np.ndarray, y: np.ndarray,
            subsets: np.ndarray | None = None) -> "RegressionTree":
        """Grow the tree on ``(X, y)``. Every node's split search scores
        all features, or, given ``subsets`` (``(k, m)`` feature indices),
        the next row of it in preorder, in that row's order (the random
        forest's per-node feature sampling); running out raises."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or len(X) != len(y) or len(y) == 0:
            raise ValueError("X must be 2-D and aligned with non-empty y")
        nodes: list[list] = []  # [feature, threshold, left, right, value]
        self.depth = 0
        nl = np.arange(1.0, len(y))[:, None]  # left sizes 1 … n−1
        cols = np.arange(X.shape[1] if subsets is None else subsets.shape[1])
        self._build(X, y, 0, nodes, nl, cols, None if subsets is None else iter(subsets))
        self.feature, self.threshold, self.left, self.right, self.value = map(
            np.array, zip(*nodes))
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        return TreeStack([self]).leaf_values(X)[0]

    # -- internals ----------------------------------------------------

    def _build(self, X: np.ndarray, y: np.ndarray, depth: int, nodes: list,
               nl: np.ndarray, cols: np.ndarray, subsets) -> int:
        """Append the subtree of these rows to ``nodes`` in preorder;
        return its root's index. ``nl`` is the column of left sizes
        1 … n−1 of the whole fit, ``cols`` the column indices of a
        candidate block and ``subsets`` the iterator over the feature
        subsets (None: every feature)."""
        i, n = len(nodes), len(y)
        mean = y.sum() / n
        nodes.append([-1, 0.0, i, i, mean])
        if depth > self.depth:
            self.depth = depth
        if depth >= self.max_depth:
            return i
        ys = y.tolist()
        if max(ys) == min(ys):  # a one-row node is constant, so it stops here too
            return i
        feats = None
        if subsets is not None and (feats := next(subsets, None)) is None:
            raise ValueError("the feature subsets ran out")
        feat, thr = self._best_split(X, y, mean, nl[: n - 1], cols, feats)
        if feat < 0:
            return i
        go_left = X[:, feat] <= thr
        go_right = ~go_left
        node = nodes[i]
        node[0], node[1] = feat, thr
        node[2] = self._build(X[go_left], y[go_left], depth + 1, nodes, nl, cols, subsets)
        node[3] = self._build(X[go_right], y[go_right], depth + 1, nodes, nl, cols, subsets)
        return i

    def _best_split(self, X: np.ndarray, y: np.ndarray, mean: float, nl: np.ndarray,
                    cols: np.ndarray, feats: np.ndarray | None) -> tuple[int, float]:
        """Best (feature, threshold) over the candidate features ``feats``
        (every column when None), scored in one pass: each column sorted,
        every cut's SSE from cumulative sums, invalid cuts at +inf;
        ``(-1, 0.0)`` when no cut gains. ``mean`` is ``y``'s, ``nl`` the
        ``(n - 1, 1)`` column of left sizes 1 … n−1 and ``cols`` the
        candidates' column indices ``0 … len(feats) − 1``."""
        n = len(y)
        best_gain, best = 0.0, (-1, 0.0)
        dev = y - mean
        base_sse = float((dev * dev).sum())
        Xf = X if feats is None else X[:, feats]
        order = Xf.argsort(axis=0, kind="stable")
        xs, ys = Xf[order, cols], y[order]
        # cumulative sums → SSE of every prefix/suffix split in O(n)
        csum, csq = ys.cumsum(axis=0), (ys * ys).cumsum(axis=0)
        tot, totsq = csum[-1], csq[-1]
        valid = xs[1:] > xs[:-1]
        msl = self.min_samples_leaf
        if msl > 1:
            valid &= (nl >= msl) & (n - nl >= msl)
        sl, sql = csum[:-1], csq[:-1]
        sse = (sql - sl * sl / nl) + ((totsq - sql) - (tot - sl) ** 2 / nl[::-1])
        sse[~valid] = np.inf
        ks = sse.argmin(axis=0)
        # a column with no valid cut has gain -inf and is never picked
        for j, gain in enumerate((base_sse - sse[ks, cols]).tolist()):
            if gain > best_gain + 1e-12:
                i = ks[j] + 1
                best_gain = gain
                best = (j if feats is None else int(feats[j]),
                        float((xs[i - 1, j] + xs[i, j]) / 2.0))
        return best


class TreeStack:
    """Fitted trees' node arrays laid end to end: tree ``t`` starts at
    ``roots[t]``, its child indices shifted with it. One walk takes every
    (tree, row) pair down at once, one level per step."""

    def __init__(self, trees: list[RegressionTree]):
        if not trees or any(t.feature is None for t in trees):
            raise RuntimeError("tree is not fitted")
        self.roots = np.cumsum([0] + [len(t.feature) for t in trees[:-1]])
        self.feature = np.concatenate([t.feature for t in trees])
        self.threshold = np.concatenate([t.threshold for t in trees])
        self.value = np.concatenate([t.value for t in trees])
        self.left = np.concatenate([t.left + r for t, r in zip(trees, self.roots)])
        self.right = np.concatenate([t.right + r for t, r in zip(trees, self.roots)])
        self.depth = max(t.depth for t in trees)

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """``(n_trees, n_rows)`` values of the leaf each row reaches in
        each tree. A leaf's ``feature`` of −1 reads the last column, but
        both of its branches lead back to it."""
        X = np.asarray(X, dtype=np.float64)
        rows = np.arange(len(X))
        node = np.repeat(self.roots[:, None], len(X), axis=1)
        for _ in range(self.depth):
            go_left = X[rows, self.feature[node]] <= self.threshold[node]
            node = np.where(go_left, self.left[node], self.right[node])
        return self.value[node]
