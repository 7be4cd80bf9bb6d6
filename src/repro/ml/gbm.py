"""Gradient-boosted regression trees (NumPy) — LightGBM stand-in.

The paper trains a LightGBM regressor as the meta-learning similarity
model :math:`M_{reg}: (v_1, v_2) \\mapsto d` (§5.1). LightGBM is not
installable offline, so this module provides least-squares gradient
boosting over the same CART trees used elsewhere in :mod:`repro.ml`.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ml.tree import RegressionTree, TreeGrower, TreeStack

LEARNING_RATE = 0.1  # shrinkage of each boosting stage


@dataclass
class GradientBoostedRegressor:
    """L2 gradient boosting: each stage fits residuals with a shallow tree."""

    n_estimators: int = 100
    max_depth: int = 3
    min_samples_leaf: int = 2
    _init: float = field(init=False, default=0.0)
    _trees: list[RegressionTree] = field(init=False, default_factory=list)
    _stack: TreeStack | None = field(init=False, default=None)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostedRegressor":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        self._init = float(y.mean())
        pred = np.full(len(y), self._init)
        self._trees, grower = [], TreeGrower(X, np.arange(len(y))[None])
        for _ in range(self.n_estimators):
            t = RegressionTree(max_depth=self.max_depth, min_samples_leaf=self.min_samples_leaf)
            # the values of the leaves the training rows end in: what predict(X) walks to
            pred += LEARNING_RATE * grower.fit([t], y - pred)[0]
            self._trees.append(t)
        self._stack = TreeStack(self._trees)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not self._trees:
            raise RuntimeError("model is not fitted")
        X = np.asarray(X, dtype=np.float64)
        out = np.full(len(X), self._init)
        for v in self._stack.leaf_values(X):  # the trees in fit order
            out += LEARNING_RATE * v
        return out
