"""Efficient & safe configuration generator (Algorithm 2, §4).

Per iteration: fit surrogates for the objective and the runtime
constraint on the run history; every ``N_AGD``-th iteration produce the
next configuration by approximate gradient descent from the incumbent;
otherwise update the adaptive sub-space, intersect it with the safe
region of every constraint (GP upper bound, Eq. 8; white-box resource
constraints filtered analytically), and maximize EIC (Eq. 6) over the
surviving candidates.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.acquisition import propose
from repro.core.agd import AGDStepper, N_AGD
from repro.core.bo import RunHistory, Surrogates, datasize_feature, fit_surrogates
from repro.core.config_space import ConfigSpace
from repro.core.objective import TuningProblem, resource
from repro.core.subspace import SubspaceManager


@dataclass
class ConfigGenerator:
    """Suggests the next configuration for one tuning task."""

    space: ConfigSpace
    problem: TuningProblem
    seed: int = 0
    use_subspace: bool = True
    use_agd: bool = True
    use_safe: bool = True
    datasize_aware: bool = True
    gamma: float = 0.5          # safe-region bound multiplier (Eq. 8)
    n_candidates: int = 1200
    meta_surrogate_factory: object | None = None  # see core.meta
    subspace: SubspaceManager = field(init=False)
    last_ei: float = float("inf")  # inspected by the stopping criterion
    # fitted by the last suggest(); the controller scores its pick with them
    surrogates: Surrogates | None = field(init=False, default=None)
    _rng: np.random.Generator = field(init=False)

    def __post_init__(self) -> None:
        self.subspace = SubspaceManager(self.space, seed=self.seed)
        self._rng = np.random.default_rng(self.seed)

    # -- helpers -------------------------------------------------------

    def _candidates(self, history: RunHistory) -> list[dict]:
        """Random + local candidates inside the current sub-space."""
        best = history.best()
        base = best.config if best else self.space.default_config()
        dims = self.subspace.current_dims() if self.use_subspace else list(range(self.space.dim))
        n_rand = int(self.n_candidates * 0.7)
        cands = self.space.sample_random(n_rand, self._rng, subspace=dims, base=base)
        # local Gaussian perturbations of the incumbent (exploitation pool)
        u0 = self.space.to_unit(base)
        for _ in range(self.n_candidates - n_rand):
            u = u0.copy()
            for i in dims:
                u[i] = float(np.clip(u[i] + self._rng.normal(0.0, 0.12), 0.0, 1.0))
            cands.append(self.space.from_unit(u))
        seen = {tuple(sorted(o.config.items())) for o in history.observations}
        return [c for c in cands if tuple(sorted(c.items())) not in seen] or cands

    # -- Algorithm 2 ---------------------------------------------------

    def suggest(self, history: RunHistory) -> dict:
        if len(history) == 0:
            return self.space.default_config()
        self.surrogates = fit_surrogates(
            history, with_datasize=self.datasize_aware, runtime=True,
            meta_factory=self.meta_surrogate_factory,
        )
        it = len(history) + 1
        # AGD needs "observations sufficient to approximate f" (§4.3):
        # gate it on a minimum history besides the every-N_AGD cadence
        if self.use_agd and it % N_AGD == 0 and it >= 2 * N_AGD:
            ds_feat = datasize_feature(history.observations[-1].result.datasize_mb)
            return AGDStepper(self.space, self.problem.beta).step(
                history.best().config, self.surrogates.runtime,
                datasize_feature=ds_feat if self.datasize_aware else None,
                dims=self.subspace.current_dims() if self.use_subspace else None,
            )

        if self.use_subspace:
            self.subspace.update_importance(
                history.X_unit(), history.penalized_objectives()
            )
        cands = self._candidates(history)
        thresholds, gamma = [], None
        # use_safe=False is the paper's "vanilla BO" ablation: plain EI
        # with no constraint probability and no safe region
        if self.use_safe:
            # white-box resource constraints: filter analytically
            for thr in self.problem.thresholds("resource"):
                cands = [x for x in cands if resource(x) <= thr] or cands
            thresholds, gamma = self.problem.thresholds("runtime"), self.gamma
        idx, self.last_ei = propose(
            history, cands, self.surrogates, runtime_thresholds=thresholds, gamma=gamma
        )
        return cands[idx]
