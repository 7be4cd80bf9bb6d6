"""Table 4 — execution cost of the top-3 warm-started configurations.

For each (target ← source) pair in the paper's Table 4 the source task
is tuned first; its three best runs (feasible first, then by objective)
are evaluated on the target as they are. The pairs are fixed by the
paper, so no meta-learner (:mod:`repro.core.meta`) picks the source or
the configs.
Reported: execution cost of the Default and Manual configurations and
of Top1/Top2/Top3 — the paper's observation to check is that the
transferred configs beat Manual in the first three trials and that the
source's best is *not always* the target's best of the three.
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.core.objective import execution_cost
from repro.experiments.harness import tune
from repro.experiments.hibench import hibench_env
from repro.simcluster import get_profile

#: (target, source) pairs as in the paper's Table 4 (LR ← PageRank,
#: KMeans ← SVD, TeraSort ← Sort / WordCount).
PAIRS = (
    ("terasort", "sort"),
    ("terasort", "wordcount"),
    ("lr", "pagerank"),
    ("kmeans", "svd"),
)

#: "Manually tuned" HiBench settings — per-family expert configs (the
#: paper's manual rows are per-task engineer settings): shuffle-heavy
#: sorts get many mid-memory executors and matched parallelism,
#: CPU-bound iterative tasks get a compact cached deployment.
MANUAL_OVERRIDES = {
    "terasort": {
        "spark.executor.instances": 32,
        "spark.executor.cores": 4,
        "spark.executor.memory": 8,
        "spark.default.parallelism": 256,
        "spark.sql.shuffle.partitions": 256,
    },
    "lr": {
        "spark.executor.instances": 12,
        "spark.executor.cores": 4,
        "spark.executor.memory": 4,
        "spark.default.parallelism": 64,
    },
    "kmeans": {
        "spark.executor.instances": 12,
        "spark.executor.cores": 4,
        "spark.executor.memory": 4,
        "spark.default.parallelism": 64,
    },
}


@dataclass
class WarmStartRow:
    target: str
    source: str
    default: float
    manual: float
    top: tuple[float, float, float]


def _cost(sim, profile, config, seed) -> float:
    r = sim.run(profile, config, seed=seed)
    return execution_cost(r.runtime_s, config)


def run(*, source_budget: int = 30, seed: int = 0) -> list[WarmStartRow]:
    space, sim = hibench_env()
    rows = []
    source_histories: dict[str, list[dict]] = {}
    for target_name, source_name in PAIRS:
        if source_name not in source_histories:
            history = tune(space, sim, get_profile(source_name), seed=seed, budget=source_budget)
            ranked = sorted(
                history.observations, key=lambda o: (not o.feasible, o.objective)
            )
            source_histories[source_name] = [o.config for o in ranked[:3]]
        target = get_profile(target_name)
        default = space.default_config()
        manual = space.clip(default | MANUAL_OVERRIDES[target_name])
        tops = source_histories[source_name]
        rows.append(
            WarmStartRow(
                target_name,
                source_name,
                default=_cost(sim, target, default, seed + 1),
                manual=_cost(sim, target, manual, seed + 1),
                top=tuple(_cost(sim, target, c, seed + 1) for c in tops),
            )
        )
    return rows


def reduction_vs(rows: list[WarmStartRow]) -> dict[str, tuple[float, float]]:
    """Best-of-top-3 reduction ranges vs default and manual (%) — the
    paper quotes 66.03–95.19% vs default and 25.44–55.93% vs manual."""
    vs_def = [100.0 * (r.default - min(r.top)) / r.default for r in rows]
    vs_man = [100.0 * (r.manual - min(r.top)) / r.manual for r in rows]
    return {"default": (min(vs_def), max(vs_def)), "manual": (min(vs_man), max(vs_man))}


def format_table(rows: list[WarmStartRow]) -> str:
    head = (
        f"{'Target':<10}{'Source':<11}{'Default':>10}{'Manual':>10}"
        f"{'Top1':>10}{'Top2':>10}{'Top3':>10}"
    )
    lines = [head, "-" * len(head)]
    for r in rows:
        lines.append(
            f"{r.target:<10}{r.source:<11}{r.default:>10.2f}{r.manual:>10.2f}"
            f"{r.top[0]:>10.2f}{r.top[1]:>10.2f}{r.top[2]:>10.2f}"
        )
    red = reduction_vs(rows)
    lines.append(
        f"best-of-top3 reduction: vs default {red['default'][0]:.2f}-{red['default'][1]:.2f}% "
        f"(paper 66.03-95.19%), vs manual {red['manual'][0]:.2f}-{red['manual'][1]:.2f}% "
        f"(paper 25.44-55.93%)"
    )
    return "\n".join(lines)
