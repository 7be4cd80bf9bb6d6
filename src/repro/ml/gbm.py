"""Gradient-boosted regression trees (NumPy) — LightGBM stand-in.

The paper trains a LightGBM regressor as the meta-learning similarity
model :math:`M_{reg}: (v_1, v_2) \\mapsto d` (§5.1). LightGBM is not
installable offline, so this module provides least-squares gradient
boosting over the same CART trees used elsewhere in :mod:`repro.ml`.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ml.tree import TreeGrower, TreeStack

LEARNING_RATE = 0.1  # shrinkage of each boosting stage


@dataclass
class GradientBoostedRegressor:
    """L2 gradient boosting: each stage fits residuals with a shallow tree."""

    n_estimators: int = 100
    max_depth: int = 3
    min_samples_leaf: int = 2
    _init: float = field(init=False, default=0.0)
    stack: TreeStack | None = field(init=False, default=None, repr=False)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostedRegressor":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        self._init = float(y.mean())
        pred = np.full(len(y), self._init)
        stages, grower = [], TreeGrower(X, np.arange(len(y))[None])
        for _ in range(self.n_estimators):
            stage, fitted = grower.fit(y - pred, self.max_depth, self.min_samples_leaf)
            # the values of the leaves the training rows end in: what predict(X) walks to
            pred += LEARNING_RATE * fitted[0]
            stages.append(stage)
        # the stages end to end: tree t's child indices shift with its root
        roots = np.cumsum([0] + [len(s.feature) for s in stages[:-1]])
        arrays = zip(*[(s.feature, s.threshold, s.left + r, s.right + r, s.value)
                       for s, r in zip(stages, roots)])
        self.stack = TreeStack(roots, *map(np.concatenate, arrays), max(s.depth for s in stages))
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.stack is None:
            raise RuntimeError("model is not fitted")
        X = np.asarray(X, dtype=np.float64)
        out = np.full(len(X), self._init)
        for v in self.stack.leaf_values(X):  # the trees in fit order
            out += LEARNING_RATE * v
        return out
