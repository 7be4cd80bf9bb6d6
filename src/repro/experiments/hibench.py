"""HiBench end-to-end comparison (the paper's Figures 4–5, §6.3).

All seven methods tune the six HiBench tasks for 30 iterations under a
runtime and a resource constraint, each 2× the default configuration's
(:func:`repro.experiments.harness.tune`), with two objectives: runtime
(β=1, Fig. 4 — reported as *speedup* of the best found configuration
relative to random search) and execution cost (β=0.5, Fig. 5 —
reported as *cost reduction* relative to random search). Only feasible
runs are scored; a method with none on a task scores the default
configuration's own metric there. Figures are out of reproduction
scope, but these numbers carry the paper's generality claim, so the
harness reports them as tables.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines import (
    CherryPickTuner, DACTuner, LOCATTuner, RandomSearchTuner, RFHOCTuner, TunefulTuner,
)
from repro.core.config_space import hibench_space
from repro.core.controller import OnlineTuner
from repro.core.objective import execution_cost
from repro.experiments.harness import incumbent_score, mean_scores, reference_run
from repro.simcluster import ClusterSimulator, get_profile

HIBENCH_TASKS = ("bayes", "kmeans", "nweight", "wordcount", "pagerank", "terasort")
METHODS = (
    RandomSearchTuner, RFHOCTuner, DACTuner, CherryPickTuner,
    TunefulTuner, LOCATTuner, OnlineTuner,
)


def hibench_env():
    """The HiBench space and the 384-core cluster it is tuned on."""
    return hibench_space(), ClusterSimulator(capacity_cores=384, capacity_mem_gb=2048)


@dataclass
class HiBenchResult:
    objective: str                       # "runtime" | "cost"
    best: dict[str, dict[str, float]]    # method → task → best metric value
    relative: dict[str, dict[str, float]]  # method → task → vs-random metric


def _metric(result, config: dict, objective: str) -> float:
    if objective == "runtime":
        return result.runtime_s
    return execution_cost(result.runtime_s, config)


def run(
    *, objective: str = "runtime", budget: int = 30, seeds: tuple[int, ...] = (0,),
    tasks: tuple[str, ...] = HIBENCH_TASKS, methods=METHODS,
) -> HiBenchResult:
    beta = 1.0 if objective == "runtime" else 0.5
    space, sim = hibench_env()
    default = space.default_config()
    refs = {t: _metric(reference_run(get_profile(t), sim, default), default, objective)
            for t in tasks}
    score = lambda o: _metric(o.result, o.config, objective)
    scores = mean_scores(
        space, sim, tasks, {m.name: {"method": m, "beta": beta} for m in methods},
        lambda task, history: incumbent_score(history, score, refs[task]),
        seeds=seeds, budget=budget,
    )
    best = {m.name: {t: scores[t][m.name] for t in tasks} for m in methods}
    relative = {}
    for name, per_task in best.items():
        relative[name] = {}
        for task, v in per_task.items():
            ref = best["Random"][task]
            if objective == "runtime":
                relative[name][task] = ref / v             # speedup
            else:
                relative[name][task] = 100.0 * (ref - v) / ref  # cost reduction %
    return HiBenchResult(objective, best, relative)


def format_table(res: HiBenchResult) -> str:
    tasks = list(next(iter(res.best.values())))
    unit = "speedup vs random" if res.objective == "runtime" else "cost reduction % vs random"
    head = f"{'Method':<12}" + "".join(f"{t:>12}" for t in tasks) + f"{'avg':>12}"
    lines = [f"[{res.objective}] {unit}", head, "-" * len(head)]
    for name, per_task in res.relative.items():
        vals = [per_task[t] for t in tasks]
        lines.append(
            f"{name:<12}" + "".join(f"{v:>12.2f}" for v in vals)
            + f"{np.mean(vals):>12.2f}"
        )
    return "\n".join(lines)
