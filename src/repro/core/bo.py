"""Run history and the surrogates fitted on it.

:class:`RunHistory` is the repository's per-task view: evaluated
configurations, their execution results, objective values and
feasibility. It keeps the configs as a unit matrix, one row appended
per run, for surrogate fitting (optionally with the datasize feature
used by the mixed kernel, Eq. 4, as a last column).
:func:`fit_surrogates` fits the models one BO iteration scores its
candidates with, and :func:`model_rows` turns candidate unit rows into
their inputs; the loop itself is
:func:`repro.experiments.harness.run_tuning`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.config_space import ConfigSpace
from repro.core.gp import GaussianProcess
from repro.core.meta import MetaEnsembleSurrogate, SourceTask
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
    unit: np.ndarray  # the config's unit row (read-only)


@dataclass
class RunHistory:
    """Ordered observations of one tuning task, with their configs kept
    as unit rows and their datasize features, one row appended per run."""

    space: ConfigSpace
    problem: TuningProblem
    observations: list[Observation] = field(default_factory=list, init=False)
    _U: np.ndarray = field(init=False, repr=False)
    _ds: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._U = np.empty((0, self.space.dim))
        self._ds = np.empty(0)

    def __len__(self) -> int:
        return len(self.observations)

    def add(self, config: dict, result: ExecResult) -> Observation:
        # its own row, not a view of the matrix: a view would keep each
        # earlier matrix alive
        unit = self.space.to_unit(config)
        unit.flags.writeable = False
        obs = Observation(
            config=config,
            result=result,
            objective=self.problem.value(result, config),
            feasible=self.problem.feasible(result, config),
            unit=unit,
        )
        self.observations.append(obs)
        self._U = np.vstack([self._U, unit])
        self._U.flags.writeable = False
        self._ds = np.append(self._ds, datasize_feature(result.datasize_mb))
        return obs

    def best(self) -> Observation | None:
        """Incumbent: the best feasible run, or the best run while none is."""
        return self.best_feasible() or min(self.observations, key=lambda o: o.objective,
                                           default=None)

    def best_feasible(self) -> Observation | None:
        """The lowest objective among feasible runs; None if there is none."""
        feasible = [o for o in self.observations if o.feasible]
        return min(feasible, key=lambda o: o.objective, default=None)

    def next_datasize(self) -> float:
        """The next run's datasize feature, taken to be the last run's."""
        return float(self._ds[-1])

    def X_unit(self, *, with_datasize: bool = False) -> np.ndarray:
        """The configs' unit rows (read-only), datasize feature last if asked."""
        if with_datasize:
            return np.concatenate([self._U, self._ds[:, None]], axis=1)
        return self._U

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
    datasize: float | None           # the next run's datasize feature, if modelled


def model_rows(U: np.ndarray, datasize: float | None) -> np.ndarray:
    """Model inputs for unit rows ``U`` at a run of datasize feature
    ``datasize``: ``U`` with that column appended, unless it is None.
    Candidates kept as sub-space blocks form the same rows with
    :meth:`repro.core.config_space.SubspaceRows.rows`."""
    if datasize is not None:
        U = np.concatenate([U, np.full((len(U), 1), datasize)], axis=1)
    return U


def fit_surrogates(
    history: RunHistory,
    *,
    with_datasize: bool = False,
    runtime: bool = False,
    sources: list[tuple[SourceTask, float]] | None = None,
) -> Surrogates:
    """Fit the objective GP on the penalized objectives — wrapped into
    the meta-ensemble over the weighted source tasks ``sources`` when
    given (see :meth:`repro.core.meta.MetaLearner.nearest`) — and, if
    ``runtime``, a GP on log-runtime over the same
    :class:`repro.core.gp.PosteriorBasis`, so the rows' kernels are
    factorized once. The next run's datasize is taken to be the last
    run's (:meth:`RunHistory.next_datasize`)."""
    X = history.X_unit(with_datasize=with_datasize)
    y = history.penalized_objectives()
    cat_mask = history.space.cat_mask
    gp_f = GaussianProcess(cat_mask).fit(X, y)
    objective = MetaEnsembleSurrogate(sources, gp_f, X, y) if sources else gp_f
    gp_t = None
    if runtime:
        # log-runtime: positive, multiplicative noise, long tails
        gp_t = GaussianProcess(cat_mask).fit(
            gp_f.basis, np.log(np.maximum(history.runtimes(), 1e-9)))
    return Surrogates(objective, gp_t, history.next_datasize() if with_datasize else None)
