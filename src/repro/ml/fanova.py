"""Functional ANOVA parameter importance over a random forest.

Implements the tree-marginal algorithm of Hutter, Hoos & Leyton-Brown
(ICML 2014), which the paper adopts to rank Spark parameters for
sub-space generation (§4.1): each tree is a piecewise constant function
over axis-aligned leaf boxes, so the marginal mean over any single
dimension — and hence its variance contribution ``V_i / V`` — has an
exact closed form under an independent uniform input distribution. The
domain is the unit cube, where the tuners keep their configs.

Only single-parameter importances are computed: per tree, for the
dimensions the tree splits on (every other dimension's marginal is the
constant mean, so its importance is exactly 0), then averaged over the
forest.
"""
from __future__ import annotations

import numpy as np

from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import RegressionTree


def _leaf_boxes(tree: RegressionTree, dim: int):
    """The leaves' values and boxes ``lo``, ``hi`` (``(n_leaves, dim)``)
    clipped to the unit cube, in preorder. A leaf whose region misses
    the cube gets an empty box (``hi <= lo`` somewhere)."""
    if tree.feature is None:
        raise RuntimeError("tree is not fitted")
    feature, threshold = tree.feature.tolist(), tree.threshold.tolist()
    left, right = tree.left.tolist(), tree.right.tolist()
    lo, hi = [None] * len(feature), [None] * len(feature)
    lo[0], hi[0] = [0.0] * dim, [1.0] * dim
    leaves = []
    for i, f in enumerate(feature):  # preorder: a node comes before its children
        if f < 0:
            leaves.append(i)
            continue
        t, l, r = threshold[i], left[i], right[i]
        lo[l], hi[l] = lo[i], hi[i][:]
        hi[l][f] = min(hi[i][f], t)
        lo[r], hi[r] = lo[i][:], hi[i]
        lo[r][f] = max(lo[i][f], t)
    return (tree.value[leaves], np.array([lo[i] for i in leaves]),
            np.array([hi[i] for i in leaves]))


def _intervals(lo_col: np.ndarray, hi_col: np.ndarray):
    """Break ``[0, 1]`` at every leaf boundary in this dimension."""
    cuts = np.unique(np.concatenate([[0.0, 1.0], lo_col, hi_col]))
    cuts = cuts[(cuts >= 0.0) & (cuts <= 1.0)]
    return cuts[:-1], cuts[1:]


def _tree_importance(tree: RegressionTree, dim: int) -> np.ndarray:
    single = np.zeros(dim)
    vals, lo, hi = _leaf_boxes(tree, dim)
    frac = np.clip(hi - lo, 0.0, 1.0)  # (n_leaves, dim)
    keep = (frac > 0).all(axis=1)
    vals, lo, hi, frac = vals[keep], lo[keep], hi[keep], frac[keep]
    if len(vals) == 0:
        return single
    w_total = frac.prod(axis=1)  # leaf coverage of whole domain
    mean = float(vals @ w_total)
    total_var = float(vals**2 @ w_total) - mean**2
    if total_var <= 1e-12:
        return single
    for i in np.unique(tree.feature[tree.feature >= 0]):
        a, b = _intervals(lo[:, i], hi[:, i])
        mids = (a + b) / 2.0
        # a fresh array per dimension: a matvec on a view of a stacked
        # array can round differently (BLAS alignment)
        w_not_i = w_total / frac[:, i]
        cover = (lo[:, i][None, :] <= mids[:, None]) & (mids[:, None] < hi[:, i][None, :])
        marg = cover @ (vals * w_not_i)  # a_i(interval)
        f_i = marg - mean
        single[i] = float((b - a) @ f_i**2) / total_var
    return single


def fanova_importance(forest: RandomForestRegressor, dim: int) -> np.ndarray:
    """fANOVA single-parameter importance fraction of each of the ``dim``
    dimensions, averaged over the trees."""
    return np.array([_tree_importance(t, dim) for t in forest.trees]).mean(axis=0)
