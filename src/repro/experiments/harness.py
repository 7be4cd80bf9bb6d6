"""Online-tuning harness: tuners × simulated periodic executions.

``SimEvaluator`` plays the role of the data platform in Figure 1: each
``evaluate`` call is one periodic job execution with the suggested
configuration, returning the metrics the OnlineTune controller stores.
Data sizes drift per iteration (lognormal around the profile's base,
optionally with a periodic daily component), exercising the
datasize-aware surrogate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.base import Tuner
from repro.core.bo import RunHistory
from repro.core.config_space import ConfigSpace
from repro.core.controller import OnlineTuner
from repro.core.objective import Constraint, ExecResult, TuningProblem
from repro.simcluster.profile import WorkloadProfile
from repro.simcluster.simulator import ClusterSimulator


@dataclass
class SimEvaluator:
    """One tuning task's online execution channel."""

    profile: WorkloadProfile
    simulator: ClusterSimulator
    seed: int = 0
    datasize_drift: float = 0.10     # lognormal sigma of per-run size
    periodic_amplitude: float = 0.0  # optional sinusoidal daily component
    n_evals: int = field(default=0, init=False)

    def datasize(self, iteration: int) -> float:
        rng = np.random.default_rng((self.seed, iteration, 7))
        size = self.profile.base_datasize_mb * float(
            rng.lognormal(0.0, self.datasize_drift)
        )
        if self.periodic_amplitude:
            size *= 1.0 + self.periodic_amplitude * math.sin(
                2.0 * math.pi * iteration / 24.0
            )
        return size

    def evaluate(self, config: dict, iteration: int) -> ExecResult:
        self.n_evals += 1
        return self.simulator.run(
            self.profile,
            config,
            datasize_mb=self.datasize(iteration),
            seed=hash((self.seed, iteration)) & 0x7FFFFFFF,
        )


def default_constraints(
    space: ConfigSpace,
    profile: WorkloadProfile,
    simulator: ClusterSimulator,
    reference: dict,
    *,
    factor: float = 2.0,
) -> tuple[Constraint, ...]:
    """The paper's production setting: constraints are ``factor``× the
    metrics of the reference (manual/default) configuration."""
    from repro.core.objective import resource

    ref = simulator.run(profile, reference, seed=123)
    return (
        Constraint("runtime", factor * ref.runtime_s),
        Constraint("resource", factor * resource(reference)),
    )


def run_tuning(
    tuner: Tuner, evaluator: SimEvaluator, budget: int
) -> RunHistory:
    """Algorithm 1's outer loop against the simulated platform."""
    for it in range(budget):
        config = tuner.suggest()
        result = evaluator.evaluate(config, it)
        tuner.observe(config, result)
    return tuner.history


def make_problem(
    beta: float,
    constraints: tuple[Constraint, ...] = (),
) -> TuningProblem:
    return TuningProblem(beta=beta, constraints=constraints)


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
    """One tuning task as every experiment runs it: constraints at 2× the
    reference configuration's metrics (the space's default if none is
    given), then ``budget`` simulated periodic executions. ``OnlineTuner``
    starts from the reference and tunes without meta-learning unless
    ``tuner_kwargs`` say otherwise."""
    reference = space.default_config() if reference is None else reference
    problem = make_problem(beta, default_constraints(space, profile, simulator, reference))
    if method is OnlineTuner:
        tuner_kwargs = {"use_meta": False, "reference_config": reference} | tuner_kwargs
    tuner = method(space, problem, seed=seed, **tuner_kwargs)
    return run_tuning(tuner, SimEvaluator(profile, simulator, seed=seed), budget)
