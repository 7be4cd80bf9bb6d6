"""Adaptive sub-space generation (§4.1).

Parameter importance comes from fANOVA over a random forest fitted on
the task's run history: single-parameter contributions, refit every
``REFIT_EVERY`` observations and blended into a running average plus a
small expert prior. The sub-space is the top-K important parameters, and K
evolves TuRBO-style: after ``TAU_SUCC`` consecutive improvements over
the incumbent the space grows (K ← min(K_max, K+2)); after ``TAU_FAIL``
consecutive failures it shrinks (K ← max(K_min, K−2)); counters reset
on every size change. Before any history exists, an expert-provided
ranking seeds the ordering (the paper starts from expert ranking too).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config_space import ConfigSpace
from repro.ml.fanova import fanova_importance
from repro.ml.forest import RandomForestRegressor

K_INIT = 10       # initial sub-space size (paper value)
K_MIN = 4         # smallest sub-space size (paper value)
TAU_SUCC = 3      # successes in a row that grow the sub-space (paper value)
TAU_FAIL = 5      # failures in a row that shrink it (paper value)
REFIT_EVERY = 5   # N_space: refit importance every N observations
MIN_HISTORY = 8   # observations needed before trusting fANOVA

#: Expert prior ranking used before any tuning history exists — ordered
#: like the paper's Table 5 experience (resource knobs first).
EXPERT_RANKING = (
    "spark.executor.instances",
    "spark.executor.memory",
    "spark.memory.storageFraction",
    "spark.default.parallelism",
    "spark.memory.fraction",
    "spark.executor.cores",
    "spark.io.compression.codec",
    "spark.shuffle.file.buffer",
    "spark.shuffle.compress",
    "spark.serializer",
    "spark.sql.shuffle.partitions",
    "spark.reducer.maxSizeInFlight",
    "spark.executor.memoryOverhead",
    "spark.shuffle.spill.compress",
    "spark.rdd.compress",
    "spark.speculation",
)


@dataclass
class SubspaceManager:
    """Maintains the current sub-space and its adaptive size K, which
    stays in ``[k_min, k_max]`` (``k_max`` is the space's dimension)."""

    space: ConfigSpace
    seed: int = 0
    k: int = field(init=False)
    k_min: int = field(init=False, default=K_MIN)
    k_max: int = field(init=False)
    _succ: int = field(init=False, default=0)
    _fail: int = field(init=False, default=0)
    _ranking: list[int] = field(init=False)
    _prior: np.ndarray = field(init=False, repr=False)
    importance: np.ndarray | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        self.k_max = self.space.dim
        self.k = min(K_INIT, self.k_max)
        known = [self.space.index_of(n) for n in EXPERT_RANKING if n in self.space.names]
        rest = [i for i in range(self.space.dim) if i not in known]
        self._ranking = known + rest
        # the expert-prior term blended into every refit's importance
        self._prior = np.zeros(self.space.dim)
        for r, name in enumerate(EXPERT_RANKING):
            if name in self.space.names:
                self._prior[self.space.index_of(name)] = 0.04 * (0.8**r)

    # -- importance ----------------------------------------------------

    def update_importance(self, X_unit: np.ndarray, y: np.ndarray) -> None:
        """Refit fANOVA on run history (every ``REFIT_EVERY`` observations).

        The paper continuously *averages* importance scores as new
        history arrives; a single refit on a small, search-biased
        history is noisy, so scores are blended as a running average
        and anchored by a small expert-prior term — otherwise one bad
        refit can evict a critical parameter from the sub-space.
        """
        if len(y) < MIN_HISTORY or len(y) % REFIT_EVERY != 0:
            return
        forest = RandomForestRegressor(n_estimators=16, max_depth=5, seed=self.seed).fit(
            np.asarray(X_unit), np.asarray(y))
        imp = fanova_importance(forest, self.space.dim)
        if self.importance is None:
            self.importance = imp
        else:
            self.importance = 0.5 * self.importance + 0.5 * imp
        blended = self.importance + self._prior
        self._ranking = list(np.argsort(-blended, kind="stable"))

    # -- adaptive size -------------------------------------------------

    def record(self, success: bool) -> None:
        """Feed one success/failure; possibly resize the sub-space."""
        if success:
            self._succ, self._fail = self._succ + 1, 0
        else:
            self._succ, self._fail = 0, self._fail + 1
        if self._succ >= TAU_SUCC:
            self.k = min(self.k_max, self.k + 2)
            self._succ = self._fail = 0
        elif self._fail >= TAU_FAIL:
            self.k = max(self.k_min, self.k - 2)
            self._succ = self._fail = 0

    def current_dims(self) -> list[int]:
        """Indices of the K most important parameters."""
        return list(self._ranking[: self.k])
