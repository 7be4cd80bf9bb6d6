"""CART regression tree (NumPy), fitted into flat node arrays.

Greedy variance-reduction splitting on a dense float matrix. Categorical
features are expected integer-coded and are split ordinally — a standard
simplification (LightGBM's default pre-4.0 behaviour) that fANOVA's
interval-marginal machinery also assumes.

A fitted tree is five arrays over its nodes in depth-first preorder:
``feature`` (−1 at a leaf), ``threshold`` (a row goes left iff
``x[feature] <= threshold``), ``left``, ``right`` (a leaf's are itself)
and ``value`` (the node's mean target). :class:`TreeGrower` is the one
build and :class:`TreeStack` the one predict path of the tree, the forest
and the boosted trees; fANOVA reads the leaves' boxes off the same arrays.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: a search pass's fixed cost, in padded (node, row, candidate) cells
PASS_CELLS = 4000


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
        """Grow the tree on ``(X, y)``, given ``subsets`` (``(k, m)``
        feature indices) or not: :class:`TreeGrower` for one tree."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or len(X) != len(y) or len(y) == 0:
            raise ValueError("X must be 2-D and aligned with non-empty y")
        TreeGrower(X, np.arange(len(y))[None]).fit(
            [self], y, None if subsets is None else subsets[None])
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        return TreeStack([self]).leaf_values(X)[0]


def _sums(A: np.ndarray, lens: list[int]) -> np.ndarray:
    """Each row's sum over its first ``lens`` entries as NumPy's ``.sum()``
    of them rounds it: a running sum from +0.0 below 8, pairwise above."""
    out = np.empty(len(lens)) if min(lens) >= 8 else (
        A.cumsum(axis=1)[np.arange(len(lens)), np.array(lens) - 1] + 0.0)
    for i, k in enumerate(lens):
        if k >= 8:
            out[i] = np.add.reduce(A[i, :k])
    return out


class TreeGrower:
    """Grows trees over the rows ``rows[t]`` (``(T, n)`` indices) of ``X``
    in lockstep, each exactly as it would grow alone node by node: the
    same splits, every sum rounded as over the node's own rows. Successive
    fits (boosting stages) share the column orders."""

    def __init__(self, X: np.ndarray, rows: np.ndarray):
        (T, n), d = rows.shape, X.shape[1]
        self.shape, self.pad = (T, n), T * n  # the all-NaN row after every tree's rows
        self.src = np.append(rows, len(X))
        Xn = np.vstack([X, np.full((1, d), np.nan)])
        # each row's rank among its column's distinct values (NaN last, as
        # one): (rank, position) orders a column's positions stably
        v = np.take_along_axis(Xn, o := Xn.argsort(axis=0), axis=0)
        step = (v[1:] != v[:-1]) & ((v[1:] == v[1:]) | (v[:-1] == v[:-1]))
        rank, cols = np.empty_like(o), np.arange(d)[:, None]
        rank[o, cols.T] = np.r_[np.zeros((1, d), dtype=int), step.cumsum(axis=0)]
        order = (rank[self.src] * (self.pad + 1) + np.arange(self.pad + 1)[:, None]).argsort(0).T
        # (position, feature) → slot f·(pad+1) + s of the flat sorted tables
        self.slot = np.empty((self.pad + 1, d), dtype=np.int64)
        self.slot[order, cols] = np.arange(order.size).reshape(d, -1)
        self.X, self.sorted_X = Xn[self.src], Xn[self.src[order], cols].ravel()
        self.sorted_src = self.src[order].ravel()
        self.varying = np.flatnonzero(step.any(axis=0))  # the columns that can split
        self.nl = np.arange(1.0, n)  # left sizes 1 … n−1
        self.nr = np.maximum(np.arange(n + 1)[:, None] - self.nl, 1.0)  # by node size, ≥ 1

    def fit(self, trees: list[RegressionTree], y: np.ndarray,
            subsets: np.ndarray | None = None) -> np.ndarray:
        """Grow ``trees[t]`` (all with ``trees[0]``'s options) on its rows of
        ``(X, y)``, tree ``t``'s ``j``-th search scoring ``subsets[t, j]``
        (in preorder; running out raises) or every feature; return the
        ``(T, n)`` values of the leaves the rows end in."""
        (T, n), pad, Xp, nl, nr = self.shape, self.pad, self.X, self.nl, self.nr
        max_depth, msl = trees[0].max_depth, trees[0].min_samples_leaf
        yp, sorted_y = np.append(y, np.nan)[self.src], np.append(y, 0.0)[self.sorted_src]
        cuts = (nl >= msl) & (nr >= msl)  # by node size: the cuts leaving msl rows a side
        # per node: tree, depth, code, rows, mean, feature (-1 at a leaf), threshold and
        # the children's codes (a leaf's: its own); codes sort by tree, then in preorder
        nodes, stacks, used = [], [[] for _ in range(T)], [0] * T

        def add(t, depth, code, rows):
            # one row's targets are all equal, and under 2 msl rows no cut is valid
            # (a node of subsets still reads one then, unless its targets are equal)
            if depth < max_depth and len(rows) >= (2 if subsets is not None else 2 * msl):
                stacks[t].append(len(nodes))
            nodes.append([t, depth, code, rows, None, -1, 0.0, code, code])

        def means(batch):  # padded rows, sizes, targets and means (stored) of nodes
            rows = [nodes[i][3] for i in batch]
            lens = [len(r) for r in rows]
            R, ns = np.full((len(rows), max(lens)), pad), np.array(lens)
            R[np.arange(max(lens)) < ns[:, None]] = np.concatenate(rows)
            mean = _sums(Y := yp[R], lens) / ns
            for i, v in zip(batch, mean.tolist()):
                nodes[i][4] = v
            return R, lens, ns, Y, mean

        def search(batch, R, lens, ns, base, F):
            # (node, row, candidate): each candidate column's rows sorted stably
            g = (self.slot[R][:, :, self.varying] if subsets is None
                 else self.slot[R[:, :, None], F[:, None]])
            g.sort(axis=1)
            xs, ys, c = self.sorted_X[g], sorted_y[g], slice(R.shape[1] - 1)
            csum, csq = ys.cumsum(axis=1), (ys * ys).cumsum(axis=1)  # the pads add 0
            sl, sql, tot, totsq = csum[:, :-1], csq[:, :-1], csum[:, -1:], csq[:, -1:]
            valid = xs[:, 1:] > xs[:, :-1]  # False at the pads' NaN
            if msl > 1:
                valid &= cuts[ns, c, None]
            sse = np.where(valid, (sql - sl * sl / nl[c, None])
                           + ((totsq - sql) - (tot - sl) ** 2 / nr[ns, c, None]), np.inf)
            gains = base[:, None] - sse.min(axis=1)
            picks = []  # a column with no valid cut has gain -inf and is never picked
            for b, row in enumerate(gains.tolist()):
                best_gain, j = 0.0, -1
                for col, gain in enumerate(row):
                    if gain > best_gain + 1e-12:
                        best_gain, j = gain, col
                if j >= 0:
                    picks.append((b, j))
            w, j = np.array(picks, dtype=int).reshape(-1, 2).T
            k, f, Rw = sse[w, :, j].argmin(axis=1), F[w, j], R[w]
            lo, hi = xs[w, k, j], xs[w, k + 1, j]
            # the midpoint, or lo where it rounds up to hi (adjacent floats)
            thr = np.where((lo + hi) / 2.0 < hi, (lo + hi) / 2.0, lo)
            go = Xp[Rw, f[:, None]] <= thr[:, None]
            # each winner's rows, its left child's first, each side in row order
            S = Rw[np.arange(len(w))[:, None], (~go).argsort(axis=1, kind="stable")]
            for b, fb, tb, s, nb in zip(w.tolist(), f.tolist(), thr.tolist(), S, go.sum(1).tolist()):
                t, depth, code = nodes[batch[b]][:3]
                digit = 4 ** (max_depth - depth - 1)  # the children's: 1 left, 2 right
                nodes[batch[b]][5:] = fb, tb, code + digit, code + 2 * digit
                add(t, depth + 1, code + 2 * digit, s[nb: lens[b]])  # the left opens last,
                add(t, depth + 1, code + digit, s[:nb])  # so it searches first

        for t in range(T):
            add(t, 0, 4 ** (max_depth + 1) * t, np.arange(t * n, t * n + n))
        while any(stacks):
            # a round searches every open node whose features are known: given subsets,
            # each tree's next in preorder, and the next after it while the last taken
            # has children that cannot search (so it reads one subset, or none)
            batch = []
            for s in stacks:
                while s:
                    batch.append(i := s.pop())
                    if subsets is not None and nodes[i][1] + 1 < max_depth and len(nodes[i][3]) > 2:
                        break  # its subtree's reads are known once it has grown
            R, lens, ns, Y, mean = means(batch)
            split = (np.fmax.reduce(Y, axis=1) > np.fmin.reduce(Y, axis=1)).tolist()
            if not all(split):
                batch, lens = [i for i, s in zip(batch, split) if s], [k for k, s in zip(lens, split) if s]
                if not batch:
                    continue
                R, ns, Y, mean = R[split, : max(lens)], ns[split], Y[split, : max(lens)], mean[split]
            if subsets is None:
                F = self.varying[None].repeat(len(batch), axis=0)
            else:
                ts, reads = [nodes[i][0] for i in batch], []
                for t in ts:  # a tree's nodes in preorder
                    reads.append(used[t])
                    used[t] += 1
                if max(reads) >= subsets.shape[1]:
                    raise ValueError("the feature subsets ran out")
                F = subsets[ts, reads]
            # nodes of like size share a pass; a pass costs about PASS_CELLS padded cells
            base, m, start = _sums((Y - mean[:, None]) ** 2, lens), F.shape[1], 0
            by_size = sorted(range(len(batch)), key=lens.__getitem__, reverse=True)
            for end in range(1, len(batch) + 1):
                top = lens[by_size[start]]
                if end == len(batch) or (top - lens[by_size[end]]) * (len(batch) - end) * m > PASS_CELLS:
                    if start == 0 and end == len(batch):  # one pass: no gathers
                        search(batch, R, lens, ns, base, F)
                        break
                    idx, start = by_size[start:end], end
                    search([batch[i] for i in idx], R[idx, :top], [lens[i] for i in idx],
                           ns[idx], base[idx], F[idx])

        if unsearched := [i for i, node in enumerate(nodes) if node[4] is None]:
            means(unsearched)
        nodes.sort(key=lambda node: node[2])  # by tree, then in preorder
        tree, depth, code, rows, value, feat, thr, left, right = zip(*nodes)
        at = {c: i for i, c in enumerate(code)}
        feat, thr, value, left, right = map(np.array, (feat, thr, value, [at[c] for c in left],
                                                       [at[c] for c in right]))
        ends = np.cumsum(np.bincount(tree, minlength=T)).tolist()
        for tr, a, b in zip(trees, [0] + ends, ends):
            tr.feature, tr.threshold, tr.value = feat[a:b], thr[a:b], value[a:b]
            tr.left, tr.right, tr.depth = left[a:b] - a, right[a:b] - a, max(depth[a:b])
        leaf = feat < 0
        fitted = np.empty(pad)
        fitted[np.concatenate([r for r, is_leaf in zip(rows, leaf) if is_leaf])] = np.repeat(
            value[leaf], [len(r) for r, is_leaf in zip(rows, leaf) if is_leaf])
        return fitted.reshape(T, n)


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
