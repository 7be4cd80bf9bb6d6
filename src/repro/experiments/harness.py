"""Online-tuning harness: tuners × simulated periodic executions.

``SimEvaluator`` plays the role of the data platform in Figure 1: each
``evaluate`` call is one periodic job execution with the suggested
configuration, returning the metrics the OnlineTune controller stores.
Data sizes drift per iteration (lognormal around the profile's base),
exercising the datasize-aware surrogate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.base import Tuner
from repro.core.bo import RunHistory
from repro.core.config_space import ConfigSpace
from repro.core.controller import OnlineTuner
from repro.core.objective import ExecResult, TuningProblem, resource
from repro.simcluster.profile import WorkloadProfile, get_profile
from repro.simcluster.simulator import ClusterSimulator

DATASIZE_SIGMA = 0.10    # lognormal sigma of each run's data size
CONSTRAINT_FACTOR = 2.0  # the bounds are this many times the reference's metrics


@dataclass
class SimEvaluator:
    """One tuning task's online execution channel."""

    profile: WorkloadProfile
    simulator: ClusterSimulator
    seed: int = 0

    def datasize(self, iteration: int) -> float:
        rng = np.random.default_rng((self.seed, iteration, 7))
        return self.profile.base_datasize_mb * float(rng.lognormal(0.0, DATASIZE_SIGMA))

    def evaluate(self, config: dict, iteration: int) -> ExecResult:
        return self.simulator.run(
            self.profile,
            config,
            datasize_mb=self.datasize(iteration),
            seed=hash((self.seed, iteration)) & 0x7FFFFFFF,
        )


def reference_run(profile: WorkloadProfile, simulator: ClusterSimulator, reference: dict):
    """The reference config's run (base data size) the bounds come from."""
    return simulator.run(profile, reference, seed=123)


def incumbent_score(history: RunHistory, metric, reference: float) -> float:
    """``metric`` of the best feasible run, else ``reference``: the value of
    the known-safe reference config the service would keep serving. Every
    experiment scores a tuning run by this rule."""
    best = history.best_feasible()
    return reference if best is None else metric(best)


def default_constraints(
    space: ConfigSpace,
    profile: WorkloadProfile,
    simulator: ClusterSimulator,
    reference: dict,
) -> tuple[float, float]:
    """The paper's production setting: ``(t_max, r_max)`` at
    ``CONSTRAINT_FACTOR``× the runtime and resource of the reference
    (manual/default) configuration."""
    ref = reference_run(profile, simulator, reference)
    return CONSTRAINT_FACTOR * ref.runtime_s, CONSTRAINT_FACTOR * resource(reference)


def run_tuning(
    tuner: Tuner, evaluator: SimEvaluator, budget: int
) -> RunHistory:
    """Algorithm 1's outer loop against the simulated platform."""
    for it in range(budget):
        config = tuner.suggest()
        result = evaluator.evaluate(config, it)
        tuner.observe(config, result)
    return tuner.history


def make_problem(beta: float, bounds: tuple[float | None, float | None]) -> TuningProblem:
    """The problem at ``beta`` under ``bounds``, ``(t_max, r_max)``."""
    return TuningProblem(beta, *bounds)


def tune(
    space: ConfigSpace,
    simulator: ClusterSimulator,
    profile: WorkloadProfile,
    *,
    seed: int,
    budget: int,
    beta: float = 0.5,
    reference: dict | None = None,
    method: type[Tuner] = OnlineTuner,
    **tuner_kwargs,
) -> RunHistory:
    """One tuning task as every experiment runs it: bounds at 2× the
    reference configuration's metrics (the space's default if none is
    given), then ``budget`` simulated periodic executions. ``OnlineTuner``
    and its subclasses start from the reference and tune without
    meta-learning unless ``tuner_kwargs`` say otherwise."""
    reference = space.default_config() if reference is None else reference
    problem = make_problem(beta, default_constraints(space, profile, simulator, reference))
    if issubclass(method, OnlineTuner):
        tuner_kwargs = {"use_meta": False, "reference_config": reference} | tuner_kwargs
    tuner = method(space, problem, seed=seed, **tuner_kwargs)
    return run_tuning(tuner, SimEvaluator(profile, simulator, seed=seed), budget)


def mean_scores(
    space: ConfigSpace, simulator: ClusterSimulator, tasks, variants: dict[str, dict], score,
    *, seeds, budget: int,
) -> dict[str, dict[str, float]]:
    """``{task: {variant: mean score}}``: one :func:`tune` run per seed of
    each task under each variant's ``tune`` keywords, scored by
    ``score(task, history)`` and averaged over the seeds. Every run seeds
    itself, so the order of the runs does not matter."""
    return {
        task: {
            name: float(np.mean([
                score(task, tune(space, simulator, get_profile(task), seed=seed,
                                 budget=budget, **kwargs))
                for seed in seeds
            ]))
            for name, kwargs in variants.items()
        }
        for task in tasks
    }
