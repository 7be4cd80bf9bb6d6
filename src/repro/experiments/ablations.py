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
from operator import attrgetter

import numpy as np

from repro.core.controller import OnlineTuner
from repro.core.meta import MetaLearner, SourceTask
from repro.core.objective import objective as obj_fn
from repro.experiments.harness import incumbent_score, mean_scores, reference_run, tune
from repro.experiments.hibench import HIBENCH_TASKS, hibench_env
from repro.simcluster import get_profile
from repro.simcluster.eventlog import meta_features

PAPER = {
    "safe_pct_with": 93.00, "safe_pct_without": 69.67,
    "agd_extra_reduction": 7.47,
}


@dataclass
class SafetyResult:
    safe_pct_with: float
    safe_pct_without: float
    per_task: dict[str, tuple[float, float]]


def safety(*, tasks=HIBENCH_TASKS, budget: int = 30, seeds=(0, 1)) -> SafetyResult:
    space, sim = hibench_env()
    pct = mean_scores(
        space, sim, tasks, {"with": {"use_safe": True}, "without": {"use_safe": False}},
        lambda task, history: 100.0 * np.mean([o.feasible for o in history.observations]),
        seeds=seeds, budget=budget,
    )
    per_task = {task: (p["with"], p["without"]) for task, p in pct.items()}
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
    default = space.default_config()
    refs = {t: obj_fn(reference_run(get_profile(t), sim, default).runtime_s, default, 0.5)
            for t in tasks}
    cost = mean_scores(
        space, sim, tasks, {"with": {"use_agd": True}, "without": {"use_agd": False}},
        lambda task, history: incumbent_score(history, attrgetter("objective"), refs[task]),
        seeds=seeds, budget=budget,
    )
    per_task = {task: (c["with"], c["without"]) for task, c in cost.items()}
    extras = [100.0 * (wo - w) / wo for w, wo in per_task.values()]
    return AGDResult(float(np.mean(extras)), per_task)


def format_agd(res: AGDResult) -> str:
    return (
        f"AGD extra cost reduction vs BO-without-AGD: {res.avg_extra_reduction_pct:.2f}% "
        f"(paper {PAPER['agd_extra_reduction']}%)\n"
        + "\n".join(
            f"  {t}: with={w:.1f}, without={wo:.1f}" for t, (w, wo) in res.per_task.items()
        )
    )


class FixedSmallSubspaceTuner(OnlineTuner):
    """Ours restricted to a fixed 6-parameter sub-space (no adaptation)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        mgr = self.generator.subspace
        mgr.k = mgr.k_min = mgr.k_max = 6  # freeze the size


#: Fig. 7's modes, as ``tune`` keywords: full space, fixed small, adaptive.
SUBSPACE_MODES = {
    "full": {"use_subspace": False},
    "small": {"method": FixedSmallSubspaceTuner},
    "adaptive": {},
}


@dataclass
class SubspaceResult:
    # task → {mode: best-cost reduction % vs default config}
    per_task: dict[str, dict[str, float]]


def subspace(*, tasks=("pagerank", "terasort"), budget: int = 30, seeds=(0, 1)) -> SubspaceResult:
    """Full vs fixed-small vs adaptive sub-space (paper Fig. 7)."""
    space, sim = hibench_env()
    default = space.default_config()
    refs = {t: obj_fn(sim.run(get_profile(t), default, seed=99).runtime_s, default, 0.5)
            for t in tasks}
    cost = mean_scores(
        space, sim, tasks, SUBSPACE_MODES,
        lambda task, history: incumbent_score(history, attrgetter("objective"), refs[task]),
        seeds=seeds, budget=budget,
    )
    return SubspaceResult({
        task: {mode: 100.0 * (refs[task] - v) / refs[task] for mode, v in modes.items()}
        for task, modes in cost.items()
    })


def format_subspace(res: SubspaceResult) -> str:
    return "cost reduction vs default:\n" + "\n".join(
        f"  {task}: " + ", ".join(f"{m}={v:.2f}%" for m, v in modes.items())
        for task, modes in res.per_task.items()
    )


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
