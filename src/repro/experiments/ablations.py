"""§6.4–6.5 ablation experiments.

- **safety** — fraction of feasible (constraint-satisfying) configs
  suggested with vs without the safe-region component (paper: 93.00%
  safe with, 69.67% without, averaged over the six HiBench tasks);
- **agd** — final cost with vs without approximate gradient descent
  (paper: AGD reduces cost a further 7.47% on average vs vanilla BO);
- **subspace** — full space vs fixed small space (6 most important
  params) vs the adaptive sub-space (paper Fig. 7);
- **meta ensemble** — tuning with vs without the meta-learning
  surrogate ensemble (paper Fig. 6: ≥3× fewer iterations to reach
  vanilla-BO-at-30 quality).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.controller import OnlineTuner
from repro.core.meta import MetaLearner, SourceTask
from repro.core.objective import objective as obj_fn
from repro.experiments.harness import (
    SimEvaluator, default_constraints, make_problem, run_tuning, tune,
)
from repro.experiments.hibench import HIBENCH_TASKS, hibench_env
from repro.simcluster import get_profile
from repro.simcluster.eventlog import meta_features

PAPER = {
    "safe_pct_with": 93.00, "safe_pct_without": 69.67,
    "agd_extra_reduction": 7.47,
    "meta_speedup_iters": 3,
}


@dataclass
class SafetyResult:
    safe_pct_with: float
    safe_pct_without: float
    per_task: dict[str, tuple[float, float]]


def safety(*, tasks=HIBENCH_TASKS, budget: int = 30, seeds=(0, 1)) -> SafetyResult:
    space, sim = hibench_env()
    per_task = {}
    for task in tasks:
        pct = {}
        for use_safe in (True, False):
            vals = [
                100.0
                * np.mean([o.feasible for o in tune(
                    space, sim, get_profile(task), seed=s, budget=budget, use_safe=use_safe
                ).observations])
                for s in seeds
            ]
            pct[use_safe] = float(np.mean(vals))
        per_task[task] = (pct[True], pct[False])
    w = float(np.mean([v[0] for v in per_task.values()]))
    wo = float(np.mean([v[1] for v in per_task.values()]))
    return SafetyResult(w, wo, per_task)


def format_safety(res: SafetyResult) -> str:
    return (
        f"safe configs: {res.safe_pct_with:.2f}% with safe region vs "
        f"{res.safe_pct_without:.2f}% vanilla BO "
        f"(paper {PAPER['safe_pct_with']}% vs {PAPER['safe_pct_without']}%)\n"
        + "\n".join(f"  {t}: {w:.1f}% / {wo:.1f}%" for t, (w, wo) in res.per_task.items())
    )


@dataclass
class AGDResult:
    avg_extra_reduction_pct: float        # cost drop from enabling AGD
    per_task: dict[str, tuple[float, float]]  # task → (with, without) best cost


def agd(*, tasks=HIBENCH_TASKS, budget: int = 30, seeds=(0, 1)) -> AGDResult:
    space, sim = hibench_env()
    per_task = {}
    extras = []
    for task in tasks:
        cost = {}
        for use_agd in (True, False):
            vals = [
                tune(space, sim, get_profile(task), seed=s, budget=budget, use_agd=use_agd)
                .best().objective
                for s in seeds
            ]
            cost[use_agd] = float(np.mean(vals))
        per_task[task] = (cost[True], cost[False])
        extras.append(100.0 * (cost[False] - cost[True]) / cost[False])
    return AGDResult(float(np.mean(extras)), per_task)


def format_agd(res: AGDResult) -> str:
    return (
        f"AGD extra cost reduction vs BO-without-AGD: {res.avg_extra_reduction_pct:.2f}% "
        f"(paper {PAPER['agd_extra_reduction']}%)\n"
        + "\n".join(
            f"  {t}: with={w:.1f}, without={wo:.1f}" for t, (w, wo) in res.per_task.items()
        )
    )


@dataclass
class SubspaceResult:
    # task → {mode: best-cost reduction % vs default config}
    per_task: dict[str, dict[str, float]]


def subspace(*, tasks=("pagerank", "terasort"), budget: int = 30, seeds=(0, 1)) -> SubspaceResult:
    """Full vs fixed-small vs adaptive sub-space (paper Fig. 7)."""
    space, sim = hibench_env()
    out = {}
    for task in tasks:
        profile = get_profile(task)
        default = space.default_config()
        ref = obj_fn(sim.run(profile, default, seed=99).runtime_s, default, 0.5)
        modes = {}
        for mode in ("full", "small", "adaptive"):
            vals = []
            for s in seeds:
                if mode == "small":
                    h = subspace_fixed_small(space, sim, task, seed=s, budget=budget)
                else:
                    h = tune(
                        space, sim, profile, seed=s, budget=budget,
                        use_subspace=(mode == "adaptive"),
                    )
                vals.append(h.best().objective)
            modes[mode] = 100.0 * (ref - float(np.mean(vals))) / ref
        out[task] = modes
    return SubspaceResult(out)


def format_subspace(res: SubspaceResult) -> str:
    return "cost reduction vs default:\n" + "\n".join(
        f"  {task}: " + ", ".join(f"{m}={v:.2f}%" for m, v in modes.items())
        for task, modes in res.per_task.items()
    )


def subspace_fixed_small(space, sim, task, *, seed, budget):
    """Tuning restricted to a fixed 6-parameter space (no adaptation).
    It builds its own tuner, because the sub-space size is frozen after
    construction."""
    profile, default = get_profile(task), space.default_config()
    problem = make_problem(0.5, default_constraints(space, profile, sim, default))
    tuner = OnlineTuner(space, problem, seed=seed, use_meta=False, reference_config=default)
    mgr = tuner.generator.subspace
    mgr.k = mgr.k_min = mgr.k_max = 6  # freeze the size
    return run_tuning(tuner, SimEvaluator(profile, sim, seed=seed), budget)


@dataclass
class MetaResult:
    # task → best-objective-so-far curves (with, without), len=budget
    curves: dict[str, tuple[np.ndarray, np.ndarray]]


def build_meta_learner(space, sim, source_tasks, *, budget: int = 25, seed: int = 0) -> MetaLearner:
    """Tune each source task and fit the similarity meta-learner."""
    sources = []
    for task in source_tasks:
        history = tune(space, sim, get_profile(task), seed=seed, budget=budget)
        feats = meta_features(history.observations[0].result)
        sources.append(SourceTask(task, feats, history))
    return MetaLearner(space, seed=seed).fit(sources)


def meta_ensemble(
    *, targets=("kmeans", "terasort"), budget: int = 30, seed: int = 0,
    source_tasks=("sort", "wordcount", "pagerank", "svd", "lr", "bayes"),
) -> MetaResult:
    space, sim = hibench_env()
    learner = build_meta_learner(space, sim, source_tasks, seed=seed)
    curves = {}
    for task in targets:
        profile = get_profile(task)
        target_meta = meta_features(sim.run(profile, space.default_config(), seed=seed))
        per = {}
        for use_meta in (True, False):
            meta = dict(meta_learner=learner, target_meta=target_meta) if use_meta else {}
            # no reference config: the vanilla run starts from a Sobol design
            h = tune(space, sim, profile, seed=seed, budget=budget,
                     use_meta=use_meta, reference_config=None, **meta)
            objs = [o.objective if o.feasible else np.inf for o in h.observations]
            per[use_meta] = np.minimum.accumulate(objs)
        curves[task] = (per[True], per[False])
    return MetaResult(curves)


def format_meta(res: MetaResult) -> str:
    lines = ["best-objective-so-far curves:"]
    for task, (with_meta, without) in res.curves.items():
        lines.append(f"  {task} with-meta   : " + " ".join(f"{v:.0f}" for v in with_meta))
        lines.append(f"  {task} without-meta: " + " ".join(f"{v:.0f}" for v in without))
    return "\n".join(lines)
