"""Tuneful (Fekry et al., KDD 2020): online BO with incremental
sensitivity analysis.

Tuneful tunes in-memory cluster computing systems online (NOER ✓) and
shrinks the search space by identifying influential parameters with
random-forest sensitivity analysis — but only after an initial batch of
executions (10–20), and the chosen sub-space is then *fixed* (Table 1:
Adaptive space △). The paper also credits it with reusing tuning
knowledge across similar workloads via workload similarity (Meta-learn
✓). That ✓ is declared from the paper, not implemented: this class has
no similarity store and always tunes cold, as in the paper's HiBench
comparisons.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.base import PARTIAL, YES, Capabilities, FixedSubspaceTuner
from repro.ml.fanova import fanova_importance
from repro.ml.forest import RandomForestRegressor


class TunefulTuner(FixedSubspaceTuner):
    """BO + one-shot RF-based significant-parameter selection."""

    name = "Tuneful"
    capabilities = Capabilities(
        noer=YES, adaptive_space=PARTIAL, meta_learn=YES
    )

    def _pick_dims(self) -> list[int]:
        forest = RandomForestRegressor(n_estimators=16, max_depth=5, seed=self.seed)
        forest.fit(self.history.X_unit(), self.history.objectives())
        imp = fanova_importance(forest, self.space.dim)
        return list(np.argsort(-imp, kind="stable")[: self.top_k])

    def suggest(self) -> dict:
        return self._fixed_subspace_suggest()
