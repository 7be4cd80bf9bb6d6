"""Run history and the surrogates fitted on it.

:class:`RunHistory` is the repository's per-task view: evaluated
configurations, their execution results, objective values and
feasibility. It vectorizes itself for surrogate fitting (optionally
appending the datasize feature used by the mixed kernel, Eq. 4).
:func:`fit_surrogates` fits the models one BO iteration scores its
candidates with; the loop itself is
:func:`repro.experiments.harness.run_tuning`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.config_space import ConfigSpace
from repro.core.gp import GaussianProcess
from repro.core.objective import ExecResult, TuningProblem


def datasize_feature(datasize_mb: float) -> float:
    """Log-compressed datasize input for the SE kernel factor (Eq. 4)."""
    return math.log10(max(datasize_mb, 1.0)) / 6.0


@dataclass
class Observation:
    """One online evaluation: a config and what its execution reported."""

    config: dict
    result: ExecResult
    objective: float
    feasible: bool


@dataclass
class RunHistory:
    """Ordered observations of one tuning task."""

    space: ConfigSpace
    problem: TuningProblem
    observations: list[Observation] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.observations)

    def add(self, config: dict, result: ExecResult) -> Observation:
        obs = Observation(
            config=config,
            result=result,
            objective=self.problem.value(result, config),
            feasible=self.problem.feasible(result, config),
        )
        self.observations.append(obs)
        return obs

    def best(self, *, feasible_only: bool = True) -> Observation | None:
        """Incumbent: lowest objective (feasible preferred)."""
        cands = [o for o in self.observations if o.feasible] if feasible_only else []
        if not cands:
            cands = self.observations
        return min(cands, key=lambda o: o.objective) if cands else None

    def X_unit(self, *, with_datasize: bool = False) -> np.ndarray:
        X = np.array([self.space.to_unit(o.config) for o in self.observations])
        if with_datasize:
            ds = np.array([[datasize_feature(o.result.datasize_mb)] for o in self.observations])
            X = np.concatenate([X, ds], axis=1)
        return X

    def objectives(self) -> np.ndarray:
        return np.array([o.objective for o in self.observations])

    def runtimes(self) -> np.ndarray:
        return np.array([o.result.runtime_s for o in self.observations])

    def penalized_objectives(self) -> np.ndarray:
        """Objectives with infeasible runs pushed above the feasible max —
        keeps the objective surrogate away from failure regions."""
        y = self.objectives().copy()
        feas = np.array([o.feasible for o in self.observations])
        if feas.any() and (~feas).any():
            y[~feas] = np.maximum(y[~feas], y[feas].max() * 1.5)
        return y


class Surrogates(NamedTuple):
    """The models of one iteration, fitted once on the run history."""

    objective: object                # GaussianProcess or meta-ensemble
    runtime: GaussianProcess | None  # log-runtime GP, when asked for
    with_datasize: bool              # inputs end in the datasize column

    def rows(self, history: RunHistory, configs: list[dict]) -> np.ndarray:
        """Model inputs for ``configs`` at the next run, whose datasize
        is taken to be the last run's."""
        U = np.array([history.space.to_unit(c) for c in configs])
        if self.with_datasize:
            ds = datasize_feature(history.observations[-1].result.datasize_mb)
            U = np.concatenate([U, np.full((len(U), 1), ds)], axis=1)
        return U


def fit_surrogates(
    history: RunHistory,
    *,
    with_datasize: bool = False,
    runtime: bool = False,
    meta_factory=None,
) -> Surrogates:
    """Fit the objective GP on the penalized objectives — wrapped into
    the meta-ensemble by ``meta_factory`` when given (see
    :meth:`repro.core.meta.MetaLearner.ensemble_factory`) — and, if
    ``runtime``, a GP on log-runtime."""
    X = history.X_unit(with_datasize=with_datasize)
    y = history.penalized_objectives()
    cat_mask = history.space.cat_mask
    gp_f = GaussianProcess(cat_mask, has_datasize=with_datasize)
    objective = meta_factory(X, y, gp_f) if meta_factory else gp_f.fit(X, y)
    gp_t = None
    if runtime:
        gp_t = GaussianProcess(cat_mask, has_datasize=with_datasize)
        # log-runtime: positive, multiplicative noise, long tails
        gp_t.fit(X, np.log(np.maximum(history.runtimes(), 1e-9)))
    return Surrogates(objective, gp_t, with_datasize)
