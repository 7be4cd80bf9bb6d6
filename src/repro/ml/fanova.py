"""Functional ANOVA parameter importance over a random forest.

Implements the tree-marginal algorithm of Hutter, Hoos & Leyton-Brown
(ICML 2014), which the paper adopts to rank Spark parameters for
sub-space generation (§4.1): each tree is a piecewise constant function
over axis-aligned leaf boxes, so the marginal mean over any single
dimension — and hence its variance contribution ``V_i / V`` — has an
exact closed form under an independent uniform input distribution.

Only single-parameter importances are computed: per tree, for the
dimensions the tree splits on (every other dimension's marginal is the
constant mean, so its importance is exactly 0), then averaged over the
forest.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import RegressionTree


def _leaf_boxes(tree: RegressionTree, lower: np.ndarray, upper: np.ndarray):
    """The leaves' values and boxes ``lo``, ``hi`` (``(n_leaves, d)``)
    clipped to the domain ``[lower, upper]``, in preorder. A leaf whose
    region misses the domain gets an empty box (``hi <= lo`` somewhere)."""
    if tree.feature is None:
        raise RuntimeError("tree is not fitted")
    feature, threshold = tree.feature.tolist(), tree.threshold.tolist()
    left, right = tree.left.tolist(), tree.right.tolist()
    lo, hi = [None] * len(feature), [None] * len(feature)
    lo[0], hi[0] = lower.tolist(), upper.tolist()
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


def _intervals(lo_col: np.ndarray, hi_col: np.ndarray, lo: float, hi: float):
    """Break ``[lo, hi]`` at every leaf boundary in this dimension."""
    cuts = np.unique(np.concatenate([[lo, hi], lo_col, hi_col]))
    cuts = cuts[(cuts >= lo) & (cuts <= hi)]
    return cuts[:-1], cuts[1:]


def _tree_importance(tree: RegressionTree, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    single = np.zeros(len(lower))
    vals, lo, hi = _leaf_boxes(tree, lower, upper)
    rng = upper - lower
    rng = np.where(rng <= 0, 1.0, rng)
    frac = np.clip((hi - lo) / rng, 0.0, 1.0)  # (n_leaves, d)
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
        a, b = _intervals(lo[:, i], hi[:, i], lower[i], upper[i])
        mids = (a + b) / 2.0
        # a fresh array per dimension: a matvec on a view of a stacked
        # array can round differently (BLAS alignment)
        w_not_i = w_total / frac[:, i]
        cover = (lo[:, i][None, :] <= mids[:, None]) & (mids[:, None] < hi[:, i][None, :])
        marg = cover @ (vals * w_not_i)  # a_i(interval)
        f_i = marg - mean
        w_int = (b - a) / max(upper[i] - lower[i], 1e-300)
        single[i] = float(w_int @ f_i**2) / total_var
    return single


@dataclass
class FanovaResult:
    """Single-parameter importance fractions, averaged over the trees."""

    single_mean: np.ndarray

    def ranking(self) -> np.ndarray:
        """Dimensions ordered by decreasing single-parameter importance."""
        return np.argsort(-self.single_mean, kind="stable")


def fanova_importance(
    forest: RandomForestRegressor, lower: np.ndarray, upper: np.ndarray
) -> FanovaResult:
    """fANOVA importance fraction of every dimension."""
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    S = np.array([_tree_importance(t, lower, upper) for t in forest.trees])
    return FanovaResult(single_mean=S.mean(axis=0))
