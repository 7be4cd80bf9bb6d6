"""The benchmark's three online-tuning workloads.

``setup(seed, smoke, traced, tick)`` prepares a workload from its seed:
spaces, problems, reference runs, the tuners and, for ``meta-warmstart``,
the source histories and the fitted meta-learner. It calls ``tick()``
after each iteration of a loop it runs (tuning a source), so that the
caller can gauge the host's speed during a long set-up. It returns the
tasks; each is one tuner, to be driven in a closed loop against one
``SimEvaluator``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.baselines import CherryPickTuner, LOCATTuner, TunefulTuner
from repro.baselines.base import Tuner
from repro.core.config_space import hibench_space
from repro.core.controller import OnlineTuner
from repro.core.meta import MetaLearner, SourceTask
from repro.experiments.hibench import HIBENCH_TASKS
from repro.experiments.harness import (
    SimEvaluator, default_constraints, make_problem,
)
from repro.simcluster import ClusterSimulator, get_profile
from repro.simcluster.eventlog import meta_features

BETA = 0.5  # execution cost, as in Fig. 5 and Tables 2-4
#: The seed of every tuner, as in the experiments. The workload seed
#: drives what the tuners are fed (data sizes and execution noise); a
#: seed per tuner would also redraw every candidate set, which made the
#: suggestion cost move by a quarter from one workload seed to the next.
TUNER_SEED = 0


@dataclass
class Task:
    """One tuning task: a tuner, its execution channel and its budget."""

    name: str
    tuner: Tuner
    evaluator: SimEvaluator
    budget: int
    reference_objective: float  # objective of the default config


@dataclass(frozen=True)
class Workload:
    """A named task set; BENCHMARK.json records why each was chosen."""

    name: str
    setup: Callable[[int, bool, bool, Callable[[], None]], list[Task]]
    setup_reps: int = 3  # set-up is timed this many times, the median reported


def _hibench_env():
    return hibench_space(), ClusterSimulator(capacity_cores=384, capacity_mem_gb=2048)


def _problem(space, sim, profile, reference):
    """β=0.5 under 2× the reference's runtime and resource, plus the
    reference's own objective (base data size, the constraint run's seed)."""
    problem = make_problem(BETA, default_constraints(space, profile, sim, reference))
    ref = sim.run(profile, reference, seed=123)
    return problem, problem.value(ref, reference)


def _budget(full: int, smoke: bool) -> int:
    # 12 iterations reach the first sub-space refit and the first AGD step
    return min(full, 12) if smoke else full


def _stop_rule(traced: bool) -> dict:
    """Untraced, the OnlineTuner tasks run with ``ei_stop_rel=0``, so
    they tune for the whole budget: whether and when a task stops moves
    with the seed, and a stopped task serves its incumbent at no cost
    (at seed 5 one HiBench task stopped early, and ``iters_per_s`` rose
    by a tenth). The traced run keeps the default rule, so that
    ``controller.stopped_share`` reports it."""
    return {} if traced else {"ei_stop_rel": 0.0}


def _ours(space, sim, name, seed, budget, **kwargs) -> Task:
    """An OnlineTuner task (no meta-learning) on one profile, tuned from
    the default config."""
    profile = get_profile(name)
    default = space.default_config()
    problem, ref_obj = _problem(space, sim, profile, default)
    return Task(
        name,
        OnlineTuner(space, problem, seed=TUNER_SEED, use_meta=False, reference_config=default,
                    **kwargs),
        SimEvaluator(profile, sim, seed=seed), budget, ref_obj,
    )


def _no_tick() -> None:
    pass


def ours_hibench(seed: int, smoke: bool, traced: bool, tick=_no_tick) -> list[Task]:
    space, sim = _hibench_env()
    return [_ours(space, sim, n, seed, _budget(30, smoke), **_stop_rule(traced))
            for n in HIBENCH_TASKS]


def bo_baselines(seed: int, smoke: bool, traced: bool, tick=_no_tick) -> list[Task]:
    space, sim = _hibench_env()
    profile = get_profile("terasort")
    problem, ref_obj = _problem(space, sim, profile, space.default_config())
    return [
        Task(f"terasort/{cls.name}", cls(space, problem, seed=TUNER_SEED),
             SimEvaluator(profile, sim, seed=seed), _budget(40, smoke), ref_obj)
        for cls in (CherryPickTuner, TunefulTuner, LOCATTuner)
    ]


SOURCES = ("sort", "wordcount", "pagerank", "svd")   # Table 4's sources
#: Table 4's targets, and bayes: how costly a target's suggestions are
#: moves with the seed (nweight's p90 doubled from one seed to another),
#: and a fifth target evens that out.
TARGETS = ("terasort", "lr", "kmeans", "nweight", "bayes")
#: Iterations per source task. Tuning the sources is most of this
#: workload's set-up, which a run times once, so it is kept short.
SOURCE_BUDGET = 8
#: The sources are the knowledge base, tuned in the past: the same in
#: every run, so that set-up does the same work at every workload seed.
SOURCE_SEED = 0


def meta_warmstart(seed: int, smoke: bool, traced: bool, tick=_no_tick) -> list[Task]:
    """The meta-learner is fitted here, not in the timed loop, because
    the targets' tuners need it to be built (their initial design is the
    best configs of the nearest sources).

    With the default stopping rule 65-86% of the targets' suggestions
    were served while stopped, a share that moved with the seed: p50
    then timed an incumbent lookup, and p90 flipped between that and a
    real suggestion from one seed to the next. So untraced, the targets
    run without it (``_stop_rule``).
    """
    space, sim = _hibench_env()
    sources = []
    for name in SOURCES:
        src = _ours(space, sim, name, SOURCE_SEED, _budget(SOURCE_BUDGET, smoke))
        for it in range(src.budget):
            config = src.tuner.suggest()
            src.tuner.observe(config, src.evaluator.evaluate(config, it))
            tick()
        history = src.tuner.history
        sources.append(SourceTask(name, meta_features(history.observations[0].result), history))
    learner = MetaLearner(space, seed=TUNER_SEED).fit(sources)
    stop_rule = _stop_rule(traced)
    tasks = []
    for name in TARGETS:
        profile = get_profile(name)
        problem, ref_obj = _problem(space, sim, profile, space.default_config())
        probe = sim.run(profile, space.default_config(), seed=seed)
        tuner = OnlineTuner(space, problem, seed=TUNER_SEED, meta_learner=learner,
                            target_meta=meta_features(probe), **stop_rule)
        tasks.append(Task(name, tuner, SimEvaluator(profile, sim, seed=seed),
                          _budget(30, smoke), ref_obj))
    return tasks


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ours-hibench", ours_hibench),
        Workload("bo-baselines", bo_baselines),
        # tuning the sources and fitting the meta-learner take seconds: timed once
        Workload("meta-warmstart", meta_warmstart, setup_reps=1),
    )
}
