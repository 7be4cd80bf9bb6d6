"""Efficient & safe configuration generator (Algorithm 2, §4).

Per iteration: fit surrogates for the objective and the runtime
constraint on the run history; every ``N_AGD``-th iteration produce the
next configuration by approximate gradient descent from the incumbent;
otherwise update the adaptive sub-space, intersect it with the safe
region of the runtime bound (GP upper bound, Eq. 8) and with the
white-box resource bound (filtered analytically), and maximize EIC
(Eq. 6) over the surviving candidates. Configurations stay unit rows
throughout: the generator starts from the history's rows and returns
the row to run next, which the caller turns into a config.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.acquisition import propose
from repro.core.agd import AGDStepper, N_AGD
from repro.core.bo import RunHistory, Surrogates, fit_surrogates, model_rows
from repro.core.config_space import ConfigSpace, SubspaceRows
from repro.core.objective import TuningProblem, resource
from repro.core.subspace import SubspaceManager

GAMMA = 0.5          # safe-region bound multiplier (Eq. 8)
N_CANDIDATES = 1200  # candidate rows per EIC pick, 70% random, 30% local


@dataclass
class ConfigGenerator:
    """Suggests the next configuration for one tuning task."""

    space: ConfigSpace
    problem: TuningProblem
    seed: int = 0
    use_subspace: bool = True
    use_agd: bool = True
    use_safe: bool = True
    meta_sources: list | None = None  # weighted source tasks, see MetaLearner.nearest
    subspace: SubspaceManager = field(init=False)
    # the last EIC pick's acquisition value, for the stopping criterion
    last_ei: float = field(init=False, default=float("inf"))
    # the objective model's mean at the last pick, for the restart criterion
    expected: float = field(init=False, default=float("nan"))
    _rng: np.random.Generator = field(init=False)

    def __post_init__(self) -> None:
        self.subspace = SubspaceManager(self.space, seed=self.seed)
        self._rng = np.random.default_rng(self.seed)

    # -- helpers -------------------------------------------------------

    def _candidates(self, history: RunHistory) -> SubspaceRows:
        """Random + local candidates inside the current sub-space, as
        blocks over its dims around the incumbent (see
        :meth:`ConfigSpace.snap_subspace`). Rows equal to a history
        config are dropped, unless every row is one; with none dropped,
        the blocks are returned as they are."""
        base = history.best().unit
        dims = self.subspace.current_dims() if self.use_subspace else list(range(self.space.dim))
        n_rand = int(N_CANDIDATES * 0.7)
        # uniform draws on the sub-space's dims, then local Gaussian
        # perturbations of the incumbent (exploitation pool)
        rand = self._rng.random((n_rand, len(dims)))
        noise = self._rng.normal(0.0, 0.12, (N_CANDIDATES - n_rand, len(dims)))
        local = np.clip(base[dims] + noise, 0.0, 1.0)
        cands = self.space.snap_subspace(np.concatenate([rand, local]), dims, base)
        seen = cands.seen(history.X_unit())
        return cands if seen.all() else cands.take(~seen)

    # -- Algorithm 2 ---------------------------------------------------

    def suggest(self, history: RunHistory) -> np.ndarray:
        """The unit row to run next, not yet snapped, from a non-empty
        history; ``expected`` gets the objective model's mean at its
        snapped row."""
        surrogates = fit_surrogates(
            history, with_datasize=True, runtime=True,
            sources=self.meta_sources,
        )
        it = len(history) + 1
        # AGD needs "observations sufficient to approximate f" (§4.3):
        # gate it on a minimum history besides the every-N_AGD cadence
        if self.use_agd and it % N_AGD == 0 and it >= 2 * N_AGD:
            u = AGDStepper(self.space, self.problem.beta).step(
                history.best().unit, surrogates,
                dims=self.subspace.current_dims() if self.use_subspace else None,
            )
            x = model_rows(self.space.snap(u[None, :])[1], surrogates.datasize)
        else:
            u, x = self._eic_pick(history, surrogates)
        mu, _ = surrogates.objective.predict(x)
        self.expected = float(mu[0])
        return u

    def _eic_pick(self, history: RunHistory, surrogates: Surrogates) -> tuple[np.ndarray, np.ndarray]:
        """The EIC argmax's unit row as drawn, and its model input (one-row matrix)."""
        if self.use_subspace:
            self.subspace.update_importance(
                history.X_unit(), history.penalized_objectives()
            )
        cands = self._candidates(history)
        t_max, gamma = None, None
        # use_safe=False is the paper's "vanilla BO" ablation: plain EI
        # with no constraint probability and no safe region
        if self.use_safe:
            # the white-box resource bound: filter analytically
            r_max = self.problem.r_max
            if r_max is not None:
                R = resource(cands.columns(self.space.names))
                ok = np.broadcast_to(R <= r_max, len(cands))
                if ok.any():
                    cands = cands.take(ok)
            t_max, gamma = self.problem.t_max, GAMMA
        X = cands.rows(surrogates.datasize)
        idx, self.last_ei = propose(history, X, surrogates, t_max=t_max, gamma=gamma)
        return cands.raw_row(idx), X[idx:idx + 1]
