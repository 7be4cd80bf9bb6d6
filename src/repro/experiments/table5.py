"""Table 5 — top-10 Spark parameters ordered by fANOVA importance.

The paper averages per-task fANOVA importance scores over tuning
histories and reports the top-10 parameters (mean ± std). Here the
histories are sampled evaluations of the simulated HiBench tasks; the
test suite asserts the *shape* — resource parameters (executor
instances/memory) dominate, matching the paper's #1/#2.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.objective import objective
from repro.experiments.hibench import HIBENCH_TASKS, hibench_env
from repro.ml.fanova import fanova_importance
from repro.ml.forest import RandomForestRegressor
from repro.simcluster import get_profile

#: Paper Table 5 (importance mean ± std).
PAPER_TABLE5 = (
    ("spark.executor.instances", 0.3788, 0.1965),
    ("spark.executor.memory", 0.1501, 0.1365),
    ("spark.memory.storageFraction", 0.0469, 0.0400),
    ("spark.default.parallelism", 0.0366, 0.0530),
    ("spark.memory.fraction", 0.0345, 0.0360),
    ("spark.executor.cores", 0.0236, 0.0618),
    ("spark.io.compression.codec", 0.0199, 0.0290),
    ("spark.shuffle.file.buffer", 0.0146, 0.0187),
    ("spark.shuffle.compress", 0.0138, 0.0142),
    ("spark.serializer", 0.0083, 0.0099),
)


@dataclass
class ImportanceRow:
    rank: int
    name: str
    mean: float
    std: float


def run(*, n_samples: int = 120, seed: int = 0, beta: float = 0.5) -> list[ImportanceRow]:
    space, sim = hibench_env()
    rng = np.random.default_rng(seed)
    per_task = []
    for task in HIBENCH_TASKS:
        profile = get_profile(task)
        raw = space.sample_unit(n_samples, rng)
        configs = [space.from_unit(u) for u in raw]
        X = space.snap(raw)[1]
        y = np.array([
            objective(sim.run(profile, c, seed=seed + i).runtime_s, c, beta)
            for i, c in enumerate(configs)
        ])
        forest = RandomForestRegressor(n_estimators=16, max_depth=6, seed=seed)
        forest.fit(X, np.log(y))
        per_task.append(fanova_importance(forest, space.dim))
    S = np.array(per_task)  # (tasks, dim): std is across tasks, as in the paper
    mean, std = S.mean(axis=0), S.std(axis=0)
    order = np.argsort(-mean, kind="stable")[:10]
    return [
        ImportanceRow(r + 1, space.names[i], float(mean[i]), float(std[i]))
        for r, i in enumerate(order)
    ]


def format_table(rows: list[ImportanceRow]) -> str:
    head = f"{'#':<4}{'Parameter':<42}{'Importance (mean ± std)':>26}"
    lines = [head, "-" * len(head)]
    for r in rows:
        lines.append(f"{r.rank:<4}{r.name:<42}{r.mean:>14.4f} ± {r.std:.4f}")
    lines.append("paper top-3: " + ", ".join(n for n, _, _ in PAPER_TABLE5[:3]))
    return "\n".join(lines)
