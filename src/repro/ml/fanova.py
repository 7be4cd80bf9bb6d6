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
from repro.ml.tree import TreeStack


def _leaf_boxes(stack: TreeStack, dim: int):
    """The leaves' node indices in node order (so each tree's in
    preorder) and their boxes ``lo``, ``hi`` (``(n_leaves, dim)``)
    clipped to the unit cube, from one pass per level over every tree,
    which holds only that level's boxes. A leaf whose region misses the
    cube gets an empty box (``hi <= lo`` somewhere)."""
    leaves = np.flatnonzero(stack.feature < 0)
    lo, hi = np.zeros((len(leaves), dim)), np.ones((len(leaves), dim))
    node = stack.roots
    node_lo, node_hi = lo[: len(node)].copy(), hi[: len(node)].copy()
    while len(node):
        leaf = stack.feature[node] < 0
        at = np.searchsorted(leaves, node[leaf])
        lo[at], hi[at] = node_lo[leaf], node_hi[leaf]
        node, node_lo, node_hi = node[~leaf], node_lo[~leaf], node_hi[~leaf]
        f, t, rows = stack.feature[node], stack.threshold[node], np.arange(len(node))
        hi_left, lo_right = node_hi.copy(), node_lo.copy()
        hi_left[rows, f] = np.minimum(node_hi[rows, f], t)
        lo_right[rows, f] = np.maximum(node_lo[rows, f], t)
        node = np.concatenate([stack.left[node], stack.right[node]])
        node_lo = np.concatenate([node_lo, lo_right])
        node_hi = np.concatenate([hi_left, node_hi])
    return leaves, lo, hi


def _importances(stack: TreeStack, dim: int) -> np.ndarray:
    """``(n_trees, dim)``: each tree's single-parameter importances.

    Leaves, weights, interval cuts and covers come from whole-forest
    arrays, padded per (tree, split dimension) pair. The BLAS products,
    per tree ``vals @ w`` and per pair the interval marginals and their
    weighted square sum, run on fresh arrays of the tree's and pair's own
    shapes: a product over a view into a stacked or padded array can
    round differently (length, BLAS alignment)."""
    n_trees = len(stack.roots)
    out = np.zeros((n_trees, dim))
    leaves, lo, hi = _leaf_boxes(stack, dim)
    frac = np.clip(hi - lo, 0.0, 1.0)  # (n_leaves, dim)
    # the leaves with a non-empty box, by their row in lo, hi and frac
    kept = np.flatnonzero((frac > 0).all(axis=1))
    w_total = frac.prod(axis=1)[kept]  # leaf coverage of whole domain
    vals = stack.value[leaves[kept]]
    # tree t's kept leaves are kept[starts[t]] … kept[ends[t] - 1]
    sizes = np.bincount(np.searchsorted(stack.roots, leaves[kept], side="right") - 1,
                        minlength=n_trees)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    mean, total_var = np.zeros(n_trees), np.zeros(n_trees)
    for t in np.flatnonzero(sizes).tolist():
        v, w = vals[starts[t]: ends[t]].copy(), w_total[starts[t]: ends[t]].copy()
        mean[t] = float(v @ w)
        total_var[t] = float(v**2 @ w) - mean[t] ** 2
    # the (tree, split dimension) pairs of the trees with variance
    inner = np.flatnonzero(stack.feature >= 0)
    code = np.unique((np.searchsorted(stack.roots, inner, side="right") - 1) * dim
                     + stack.feature[inner])
    code = code[total_var[code // dim] > 1e-12]
    if len(code) == 0:
        return out
    tree, dims = code // dim, code % dim
    # per pair, the tree's kept leaves padded to the widest tree
    width = int(sizes[tree].max())
    pos = np.arange(width)
    real = pos < sizes[tree][:, None]
    rows = np.where(real, starts[tree][:, None] + pos, 0)
    at, col = kept[rows], dims[:, None]
    lo_i, hi_i = lo[at, col], hi[at, col]
    vec = np.where(real, vals[rows] * (w_total[rows] / frac[at, col]), 0.0)
    # break [0, 1] at every leaf boundary in this dimension: each row's
    # distinct cuts in [0, 1], sorted to its left, then 2.0 as padding
    cuts = np.concatenate([np.zeros((len(code), 1)), np.ones((len(code), 1)),
                           np.where(real, lo_i, 2.0), np.where(real, hi_i, 2.0)], axis=1)
    cuts.sort(axis=1)
    first = np.ones(cuts.shape, dtype=bool)
    first[:, 1:] = cuts[:, 1:] != cuts[:, :-1]
    cuts = np.sort(np.where(first & (cuts >= 0.0) & (cuts <= 1.0), cuts, 2.0), axis=1)
    n_int = (cuts <= 1.0).sum(axis=1) - 1
    cuts = cuts[:, : n_int.max() + 1]
    a, b = cuts[:, :-1], cuts[:, 1:]
    mids = (a + b) / 2.0
    span = b - a
    cover = (lo_i[:, None, :] <= mids[:, :, None]) & (mids[:, :, None] < hi_i[:, None, :])
    for p, (t, i, k, n) in enumerate(zip(tree.tolist(), dims.tolist(), n_int.tolist(),
                                         sizes[tree].tolist())):
        marg = cover[p, :k, :n].copy() @ vec[p, :n].copy()  # a_i(interval)
        f_i = marg - mean[t]
        out[t, i] = float(span[p, :k].copy() @ f_i**2) / total_var[t]
    return out


def fanova_importance(forest: RandomForestRegressor, dim: int) -> np.ndarray:
    """fANOVA single-parameter importance fraction of each of the ``dim``
    dimensions, averaged over the trees."""
    if forest.stack is None:
        raise RuntimeError("forest is not fitted")
    return _importances(forest.stack, dim).mean(axis=0)
