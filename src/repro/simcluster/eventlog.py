"""SparkEventLog-style meta-features (§5.1).

The paper characterizes a tuning task by 75 meta-features parsed from
the Spark event log: 11 stage-level features (which Spark actions/
transformations the job ran) and 64 task-level features (whether tasks
were read/write/CPU-intensive etc.). Production event logs are not
available offline, so the same summary is taken from a run's per-stage
metrics, the ``stages`` list: simulated runs
(:class:`repro.simcluster.ClusterSimulator`) emit it, and so do real
runs (``workloads.runner``), whose per-task means come from Spark's
own stage counters and whose ops come from the workload's profile.

Layout (75 total):
- features 0..10 — fraction of stages using each op in
  :data:`repro.simcluster.profile.STAGE_OPS` (11 features);
- features 11..74 — 8 summary statistics (mean, std, min, max, p25,
  p50, p75, sum) × 8 per-task quantities (duration, cpu, gc, input MB,
  shuffle read, shuffle write, spill, peak memory), normalized
  per-quantity so heterogeneous scales don't swamp the similarity
  model (64 features).
"""
from __future__ import annotations

import numpy as np

from repro.core.objective import ExecResult
from repro.simcluster.profile import STAGE_OPS

_TASK_KEYS = (
    "duration_ms", "cpu_ms", "gc_ms", "input_mb",
    "shuffle_read_mb", "shuffle_write_mb", "spill_mb", "peak_mem_mb",
)

N_STAGE_FEATURES = len(STAGE_OPS)  # 11
N_TASK_FEATURES = len(_TASK_KEYS) * 8  # 64
N_META_FEATURES = N_STAGE_FEATURES + N_TASK_FEATURES  # 75


def meta_features(result: ExecResult) -> np.ndarray:
    """75-dim meta-feature vector for one executed run."""
    stages = result.metrics.get("stages", [])
    if not stages:
        return np.zeros(N_META_FEATURES)
    ops_frac = np.array([
        sum(1 for s in stages if op in s.get("ops", ())) / len(stages)
        for op in STAGE_OPS
    ])
    # one weighted sample per stage and quantity: value × task count gives the sum
    V = np.array([[float(s.get(key, 0.0)) for s in stages] for key in _TASK_KEYS])
    counts = np.array([int(s.get("n_tasks", 1)) for s in stages])
    stats = np.column_stack([
        V.mean(axis=1), V.std(axis=1), V.min(axis=1), V.max(axis=1),
        *np.percentile(V, [25, 50, 75], axis=1),
        (V * counts).sum(axis=1),  # true total over tasks
    ])
    # log-compress scale-heavy stats so no quantity dominates
    return np.concatenate([ops_frac, (np.sign(stats) * np.log1p(np.abs(stats))).ravel()])
