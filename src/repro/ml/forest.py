"""Bagged random forest regressor (NumPy).

Used by (a) the fANOVA parameter-importance module of the paper's
sub-space generator and Tuneful's one-shot pick, and (b) the RFHOC
baseline's performance model. Predictions are the mean over the trees
of one stacked walk (:class:`repro.ml.tree.TreeStack`).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ml.tree import TreeGrower, TreeStack


def draw_subsets(seeds, d: int, m: int, k: int) -> np.ndarray:
    """``(len(seeds), k, m)`` feature subsets: row ``[t, j]`` is what the
    ``j``-th ``rng.choice(d, m, replace=False)`` on
    ``np.random.default_rng(seeds[t])`` returns, for ``1 <= m < d``.

    ``Generator.choice`` without replacement runs Floyd's algorithm,
    position ``p`` drawing from ``0 … d−m+p`` (taking ``d−m+p`` on a
    repeat), then shuffles with Fisher–Yates, position ``i`` swapping
    with a draw from ``0 … i`` for ``i = m−1 … 1``. Each generator draws
    all ``k`` subsets' bounded integers in one ``integers`` call, which
    consumes its stream exactly as the ``k`` calls would; the two passes
    then run over every subset at once.
    """
    highs = np.tile(np.r_[d - m + 1: d + 1, m: 1: -1], k)
    draws = np.empty((len(seeds), len(highs)), dtype=np.int64)
    for row, s in zip(draws, seeds):
        row[:] = np.random.default_rng(s).integers(0, highs)
    draws = draws.reshape(-1, 2 * m - 1)
    sub = np.empty((len(draws), m), dtype=np.int64)
    for p in range(m):
        v = draws[:, p]
        sub[:, p] = np.where((sub[:, :p] == v[:, None]).any(axis=1), d - m + p, v)
    rows = np.arange(len(sub))
    for i, j in zip(range(m - 1, 0, -1), draws[:, m:].T):
        sub[rows, i], sub[rows, j] = sub[rows, j], sub[rows, i]
    return sub.reshape(len(seeds), k, m)


@dataclass
class RandomForestRegressor:
    """Random forest: bootstrap rows, subsample features per split-node.

    ``max_features=None`` defaults to ``max(1, d // 3)`` (the classical
    regression-forest heuristic) at fit time.
    """

    n_estimators: int = 30
    max_depth: int = 12
    min_samples_leaf: int = 1
    max_features: int | None = None
    seed: int = 0
    stack: TreeStack | None = field(init=False, default=None, repr=False)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        """Each tree fits a bootstrap sample, and its nodes' feature
        subsets come from a generator seeded for it; the trees grow
        together (:class:`repro.ml.tree.TreeGrower`). A node searches for
        a split only if its targets differ, so a tree over ``n`` rows
        reads at most ``min(2**max_depth − 1, n − 1)`` subsets; those are
        drawn for every tree up front (:func:`draw_subsets`)."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        n, d = X.shape
        mf = self.max_features or max(1, d // 3)
        rng = np.random.default_rng(self.seed)
        boot, seeds = [], []
        for _ in range(self.n_estimators):
            boot.append(rng.integers(0, n, size=n))
            seeds.append(rng.integers(2**31))
        subsets = None
        if mf < d:
            subsets = draw_subsets(seeds, d, mf, min(2**self.max_depth - 1, n - 1))
        self.stack = TreeGrower(X, np.array(boot)).fit(
            y, self.max_depth, self.min_samples_leaf, subsets)[0]
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.stack is None:
            raise RuntimeError("forest is not fitted")
        return np.mean(self.stack.leaf_values(X), axis=0)
