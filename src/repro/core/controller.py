"""OnlineTune controller (§3.1): the paper's tuner end to end.

Orchestrates one tuning task: initial design (Sobol low-discrepancy
samples, or meta-learned warm-start configs when a fitted
:class:`repro.core.meta.MetaLearner` is supplied), the per-iteration
configuration generator (Algorithm 2), the stopping criterion (EI below
a threshold → keep serving the best-found config) and the restarting
criterion (continuous degradation between expected and actual results →
resume tuning). The tuner has no budget of its own: the caller's loop
(:func:`repro.experiments.harness.run_tuning`) stops calling it.

Ablation flags (``use_subspace`` / ``use_agd`` / ``use_safe``) switch
the §4 techniques individually; the §6.5 experiments use them.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.base import Capabilities, Tuner, YES
from repro.core.config_space import ConfigSpace
from repro.core.generator import ConfigGenerator
from repro.core.meta import MetaLearner
from repro.core.objective import ExecResult, TuningProblem, resource


class OnlineTuner(Tuner):
    """The paper's framework ("Ours" in every experiment)."""

    name = "Ours"
    capabilities = Capabilities(
        general_obj=YES, constraints=YES, noer=YES,
        safety=YES, adaptive_space=YES, meta_learn=YES,
    )
    n_init = 3                # initial design size
    degradation_patience = 3  # degraded runs in a row that restart tuning

    def __init__(
        self,
        space: ConfigSpace,
        problem: TuningProblem,
        *,
        seed: int = 0,
        use_subspace: bool = True,
        use_agd: bool = True,
        use_safe: bool = True,
        use_meta: bool = True,
        meta_learner: MetaLearner | None = None,
        target_meta: np.ndarray | None = None,
        reference_config: dict | None = None,
        ei_stop_rel: float = 0.10,
    ):
        super().__init__(space, problem, seed=seed)
        self.ei_stop_rel = ei_stop_rel
        self.stopped = False
        self._degradations = 0
        self._expected: float | None = None  # the pending suggestion's expected objective
        meta = use_meta and meta_learner is not None and target_meta is not None
        sources = meta_learner.nearest(target_meta) if meta else None
        self.generator = ConfigGenerator(
            space, problem, seed=seed,
            use_subspace=use_subspace, use_agd=use_agd, use_safe=use_safe,
            meta_sources=sources,
        )
        # the design's head; Sobol rows fill the rest
        if meta:
            head = [t.history.best().config for t, _ in sources]
        elif reference_config is not None:
            # online production setting: the pre-tuning (manual/default)
            # configuration is evaluated first — it is the known-safe
            # anchor the safe region grows from
            head = [space.clip(reference_config)]
        else:
            head = []
        self._init_configs = head + space.sample_sobol(self.n_init - len(head), seed=seed)
        if use_safe:
            self._init_configs = [self._repair(c) for c in self._init_configs]

    def _repair(self, config: dict) -> dict:
        """The white-box resource bound is checkable *before* running a
        config — never launch an initial design point that provably
        violates it; scale the resource knobs down instead."""
        rmax = self.problem.r_max
        if rmax is None:
            return config
        config = dict(config)
        for _ in range(64):
            if resource(config) <= rmax:
                break
            inst = config["spark.executor.instances"]
            if inst > 1:
                config["spark.executor.instances"] = max(1, int(inst * 0.7))
            elif config["spark.executor.memory"] > 1:
                config["spark.executor.memory"] = max(
                    1, config["spark.executor.memory"] // 2
                )
            else:
                break
        return self.space.clip(config)

    # -- Tuner protocol -----------------------------------------------

    def suggest(self) -> dict:
        it = len(self.history)
        best = self.history.best()
        if self.stopped and best is not None:
            # serve the incumbent and expect its own objective, so that
            # runs coming back worse count towards the restart
            self._expected = float(best.objective)
            return best.config
        if it < self.n_init:
            return self._init_configs[it]
        u = self.generator.suggest(self.history)
        # for degradation detection: the objective model's mean at the
        # pick, capped at the incumbent's objective
        self._expected = min(float(best.objective), self.generator.expected)
        return self.space.from_unit(u)

    def observe(self, config: dict, result: ExecResult) -> None:
        prev_best = self.history.best()
        obs = self.history.add(config, result)
        improved = (
            obs.feasible
            and (prev_best is None or obs.objective < prev_best.objective)
        )
        self.generator.subspace.record(improved)
        expected, self._expected = self._expected, None
        self._check_stopping(obs, expected)

    # -- stopping & restarting (§3.3) ----------------------------------

    def _check_stopping(self, obs, expected: float | None) -> None:
        if len(self.history) <= self.n_init:
            return
        best = self.history.best()
        # stop: the last suggestion's EIC fell below ei_stop_rel percent
        # of the incumbent's objective (0.1% at the default 0.10)
        scale = abs(best.objective) or 1.0
        if np.isfinite(self.generator.last_ei) and self.generator.last_ei < self.ei_stop_rel * scale * 0.01:
            self.stopped = True
        # restart: actual results keep degrading vs expectation
        if expected is not None and obs.objective > expected * 1.5:
            self._degradations += 1
        else:
            self._degradations = 0
        if self._degradations >= self.degradation_patience:
            self.stopped = False  # resume tuning (meta-knowledge retained)
            self._degradations = 0
