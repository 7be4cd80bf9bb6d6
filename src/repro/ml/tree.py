"""CART regression tree (NumPy), fitted into flat node arrays.

Greedy variance-reduction splitting on a dense float matrix. Categorical
features are expected integer-coded and are split ordinally — a standard
simplification (LightGBM's default pre-4.0 behaviour) that fANOVA's
interval-marginal machinery also assumes.

A fitted tree is five arrays over its nodes in depth-first preorder:
``feature`` (−1 at a leaf), ``threshold`` (a row goes left iff
``x[feature] <= threshold``), ``left``, ``right`` (a leaf's are itself)
and ``value`` (the node's mean target). :class:`TreeGrower` is the one
build, and :class:`TreeStack` the one fitted type and predict path, of
the forest and the boosted trees; fANOVA reads the leaves' boxes off the
same arrays.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

def _sums(A: np.ndarray, lens: list[int]) -> np.ndarray:
    """Each row's sum over its first ``lens`` entries as NumPy's ``.sum()``
    of them rounds it: a running sum from +0.0 below 8, pairwise above."""
    if len(lens) == 1:  # one row: its own .sum()
        return A[0, : lens[0]].sum(keepdims=True)
    out = np.empty(len(lens)) if min(lens) >= 8 else (
        A.cumsum(axis=1)[np.arange(len(lens)), np.array(lens) - 1] + 0.0)
    for i, k in enumerate(lens):
        if k >= 8:
            out[i] = np.add.reduce(A[i, :k])
    return out


def _firsts(key: np.ndarray) -> np.ndarray:
    """Whether each column of ``key`` is the first column equal to it."""
    o = np.lexsort(key)  # stable: equal columns stay in order
    k, first = key[:, o], np.empty(key.shape[1], dtype=bool)
    first[o] = np.r_[True, (k[:, 1:] != k[:, :-1]).any(axis=0)]
    return first


class TreeGrower:
    """Grows trees over the rows ``rows[t]`` (``(T, n)`` indices) of ``X``
    in lockstep, each exactly as it would grow alone node by node: the
    same splits, every sum rounded as over the node's own rows. Successive
    fits (boosting stages) share the column orders and, over every feature,
    each round's state that does not depend on y."""

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
        self.rank = rank  # NaN rows tie the all-NaN row, above every value
        self.nl = np.arange(1.0, n)  # left sizes 1 … n−1
        self.nr = np.maximum(np.arange(n + 1)[:, None] - self.nl, 1.0)  # by node size, ≥ 1
        # (min_samples_leaf, each node's rows) → a round's search state over every
        # feature, which does not depend on y: boosting stages meet the same row sets
        self.layouts: dict[tuple, tuple] = {}

    @cached_property
    def repeats(self) -> bool:
        """Whether some column ranks every row as an earlier one does. Only
        then do nodes' fewer rows make whole columns coincide often enough
        for :meth:`_distinct` to pay for itself."""
        return not _firsts(self.rank[:, self.varying]).all()

    def _distinct(self, g: np.ndarray, valid: np.ndarray) -> np.ndarray:
        """Which columns of a round over every feature some node can take: at
        each node, the first of each order of its targets and valid cuts. A
        later column of that order scores the first one's gain to the bit,
        which the scan never takes over it, and a column with no valid cut
        scores −inf."""
        src, keep = self.sorted_src[g], np.zeros(g.shape[2], dtype=bool)
        for b in range(len(g)):  # a node's pads read alike in every column
            keep |= _firsts(np.concatenate([src[b], valid[b]])) & valid[b].any(axis=0)
        return keep

    def fit(self, y: np.ndarray, max_depth: int, min_samples_leaf: int,
            subsets: np.ndarray | None = None) -> tuple[TreeStack, np.ndarray]:
        """Grow tree ``t`` on its rows of ``(X, y)``, its ``j``-th search
        scoring ``subsets[t, j]`` (in preorder; running out raises) or
        every feature; return the trees and the ``(T, n)`` values of the
        leaves the rows end in."""
        (T, n), pad, Xp, nl, nr = self.shape, self.pad, self.X, self.nl, self.nr
        msl = min_samples_leaf
        yp, sorted_y = np.append(y, np.nan)[self.src], np.append(y, 0.0)[self.sorted_src]
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
            ns = np.array(lens)
            if len(rows) == 1:  # nothing to pad
                R = rows[0][None]
            else:
                R = np.full((len(rows), max(lens)), pad)
                R[np.arange(max(lens)) < ns[:, None]] = np.concatenate(rows)
            mean = _sums(Y := yp[R], lens) / ns
            for i, v in zip(batch, mean.tolist()):
                nodes[i][4] = v
            return R, lens, ns, Y, mean

        def layout(R, ns, F):
            # a round's state that does not depend on y: its nodes' candidate features
            # (given, or every one), each one's rows sorted stably (as slots) and their
            # values, the valid cuts, the sizes either side of each cut and, over every
            # feature, a table of the splits taken
            if every := F is None:
                F = np.broadcast_to(self.varying, (len(R), len(self.varying)))
                g = self.slot[R][:, :, self.varying]
            else:
                g = self.slot[R[:, :, None], F[:, None]]
            g.sort(axis=1)
            xs, c = self.sorted_X[g], slice(R.shape[1] - 1)
            valid = xs[:, 1:] > xs[:, :-1]  # False at the pads' NaN
            if msl > 1:  # the cuts leaving msl rows a side
                valid &= ((nl[c] >= msl) & (nr[ns, c] >= msl))[:, :, None]
            if every and self.repeats and not (keep := self._distinct(g, valid)).all():
                F, g, xs, valid = F[:, keep], g[..., keep], xs[..., keep], valid[..., keep]
            return F, g, xs, valid, nl[c, None], nr[ns, c, None], {} if every else None

        def search(batch, R, lens, base, state):
            # splits: (node in the round, column, cut) → the split's feature, threshold
            # and rows left and right, none of which depends on y
            F, g, xs, valid, left_n, right_n, splits = state
            ys = sorted_y[g]
            csum, csq = ys.cumsum(axis=1), (ys * ys).cumsum(axis=1)  # the pads add 0
            sl, sql, tot, totsq = csum[:, :-1], csq[:, :-1], csum[:, -1:], csq[:, -1:]
            sse = np.where(valid, (sql - sl * sl / left_n)
                           + ((totsq - sql) - (tot - sl) ** 2 / right_n), np.inf)
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
            k = sse[w, :, j].argmin(axis=1)
            if splits is None:
                found = cut(R, lens, F, xs, w, j, k)
            else:  # the splits no earlier round on these rows has taken
                wins = list(zip(w.tolist(), j.tolist(), k.tolist()))
                if new := [a for a, win in enumerate(wins) if win not in splits]:
                    splits.update(zip([wins[a] for a in new], cut(R, lens, F, xs, w[new], j[new], k[new])))
                found = [splits[win] for win in wins]
            for b, (fb, tb, left, right) in zip(w.tolist(), found):
                t, depth, code = nodes[batch[b]][:3]
                digit = 4 ** (max_depth - depth - 1)  # the children's: 1 left, 2 right
                nodes[batch[b]][5:] = fb, tb, code + digit, code + 2 * digit
                add(t, depth + 1, code + 2 * digit, right)  # the left opens last,
                add(t, depth + 1, code + digit, left)  # so it searches first

        def cut(R, lens, F, xs, w, j, k):
            # each winner's feature and threshold, and its rows left and right of it,
            # each side in row order
            f, Rw, lo, hi = F[w, j], R[w], xs[w, k, j], xs[w, k + 1, j]
            # the midpoint, or lo where it rounds up to hi (adjacent floats)
            thr = np.where((mid := (lo + hi) / 2.0) < hi, mid, lo)
            go = Xp[Rw, f[:, None]] <= thr[:, None]
            S = Rw[np.arange(len(w))[:, None], (~go).argsort(axis=1, kind="stable")]
            return [(fb, tb, s[:nb], s[nb: lens[b]]) for b, fb, tb, s, nb
                    in zip(w.tolist(), f.tolist(), thr.tolist(), S, go.sum(1).tolist())]

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
            F = None  # every feature
            if subsets is not None:
                ts, reads = [nodes[i][0] for i in batch], []
                for t in ts:  # a tree's nodes in preorder
                    reads.append(used[t])
                    used[t] += 1
                if max(reads) >= subsets.shape[1]:
                    raise ValueError("the feature subsets ran out")
                F = subsets[ts, reads]
            base = _sums((Y - mean[:, None]) ** 2, lens)
            if F is None:  # the state depends on the rows alone: fits reuse it
                key = (msl, *(nodes[i][3].tobytes() for i in batch))
                if (state := self.layouts.get(key)) is None:
                    state = self.layouts[key] = layout(R, ns, None)
            else:
                state = layout(R, ns, F)
            search(batch, R, lens, base, state)

        if unsearched := [i for i, node in enumerate(nodes) if node[4] is None]:
            means(unsearched)
        nodes.sort(key=lambda node: node[2])  # by tree, then in preorder
        tree, depth, code, rows, value, feat, thr, left, right = zip(*nodes)
        at = {c: i for i, c in enumerate(code)}
        feat, thr, value, left, right = map(np.array, (feat, thr, value, [at[c] for c in left],
                                                       [at[c] for c in right]))
        roots = np.searchsorted(tree, np.arange(T))  # each tree's first node
        leaf = feat < 0
        fitted = np.empty(pad)
        fitted[np.concatenate([r for r, is_leaf in zip(rows, leaf) if is_leaf])] = np.repeat(
            value[leaf], [len(r) for r, is_leaf in zip(rows, leaf) if is_leaf])
        return TreeStack(roots, feat, thr, left, right, value, max(depth)), fitted.reshape(T, n)


@dataclass(frozen=True, eq=False)
class TreeStack:
    """Fitted trees' node arrays laid end to end: tree ``t`` starts at
    ``roots[t]``, and child indices count from the first tree's root.
    ``depth`` is the deepest leaf's. One walk takes every (tree, row) pair
    down at once, one level per step."""

    roots: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    depth: int

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
