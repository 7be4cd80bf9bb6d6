"""Tuner protocol and capability flags (paper Table 1).

Every tuning method — the baselines here and the paper's framework in
:mod:`repro.core.controller` — implements the same online interface:
``suggest()`` returns the configuration for the next periodic
execution, ``observe(config, result)`` feeds back what that execution
reported. Capability flags are declared per class and printed by the
Table 1 experiment. :class:`FixedSubspaceTuner` is the schedule that
Tuneful and LOCAT share.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.acquisition import propose
from repro.core.bo import RunHistory, fit_surrogates
from repro.core.config_space import ConfigSpace
from repro.core.objective import ExecResult, TuningProblem

YES, NO, PARTIAL = "yes", "no", "partial"


@dataclass(frozen=True)
class Capabilities:
    """One row of Table 1 (values: yes / no / partial)."""

    general_obj: str = NO
    constraints: str = NO
    noer: str = NO          # "No Offline Evaluation Required"
    safety: str = NO
    adaptive_space: str = NO
    meta_learn: str = NO

    def row(self) -> tuple[str, ...]:
        return (
            self.general_obj, self.constraints, self.noer,
            self.safety, self.adaptive_space, self.meta_learn,
        )


class Tuner:
    """Base online tuner: owns a run history over a config space."""

    name: str = "base"
    capabilities = Capabilities()

    def __init__(self, space: ConfigSpace, problem: TuningProblem, *, seed: int = 0):
        self.space = space
        self.problem = problem
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.history = RunHistory(space, problem)

    def suggest(self) -> dict:  # pragma: no cover - interface
        raise NotImplementedError

    def observe(self, config: dict, result: ExecResult) -> None:
        self.history.add(config, result)

    def best_config(self) -> dict:
        best = self.history.best()
        return best.config if best else self.space.default_config()


class FixedSubspaceTuner(Tuner):
    """Online BO whose sub-space is picked once (Table 1: Adaptive space
    △): a Sobol initial design, random executions until ``sa_rounds``,
    then the ``top_k`` parameters from :meth:`_pick_dims` stay fixed and
    each suggestion maximizes EI over random candidates that vary only
    those parameters of the incumbent."""

    n_init = 3
    sa_rounds = 10          # executions before the sensitivity analysis
    top_k = 10              # parameters kept after it
    n_candidates = 1000
    with_datasize = False   # append the datasize input to the GP's
    _dims: list[int] | None = None  # fixed after the analysis

    def _pick_dims(self) -> list[int]:  # pragma: no cover - interface
        raise NotImplementedError

    def _fixed_subspace_suggest(self) -> dict:
        it = len(self.history)
        if it < self.n_init:
            return self.space.sample_sobol(self.n_init, seed=self.seed)[it]
        if it < self.sa_rounds:
            return self.space.sample_random(1, self.rng)[0]
        if self._dims is None:
            self._dims = self._pick_dims()
        surrogates = fit_surrogates(self.history, with_datasize=self.with_datasize)
        cands = self.space.sample_random(
            self.n_candidates, self.rng, subspace=self._dims, base=self.best_config()
        )
        idx, _ = propose(self.history, cands, surrogates)
        return cands[idx]
