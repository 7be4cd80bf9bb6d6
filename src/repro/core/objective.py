"""Generalized tuning objective and its two bounds (Eq. 1).

The paper minimizes ``f(x) = T(x)^beta * R(x)^(1-beta)`` subject to
``T(x) <= T_max`` and ``R(x) <= R_max``:

- ``beta = 1``   → runtime minimization,
- ``beta = 0.5`` → execution-cost minimization (sqrt of runtime×resource;
  "equivalent to optimizing the execution cost by ignoring the square
  root"),
- ``beta = 0``   → resource minimization.

``R(x)`` is white-box: the paper uses
``R(x) = #cpu_vcores(x) + c * #mem(x)`` computed directly from the
resource parameters. AGD (Eq. 9) takes its partial derivatives as
central differences of R over configs snapped onto the grid.
"""
from __future__ import annotations

from dataclasses import dataclass, field

#: Price of 1 GB of memory relative to 1 vcore (cloud-typical ratio).
MEM_CORE_PRICE_RATIO = 0.25


@dataclass
class ExecResult:
    """What one online job execution reports back to the tuner.

    ``runtime_s`` is wall-clock; ``mem_gbh``/``cpu_coreh`` are the
    allocated-resource usage metrics the paper reports (GB-hour,
    core-hour). ``feasible`` is False when the run violated a hard limit
    (e.g. OOM) — the runtime then reflects the failure/timeout path.
    """

    runtime_s: float
    mem_gbh: float
    cpu_coreh: float
    feasible: bool = True
    datasize_mb: float = 0.0
    metrics: dict = field(default_factory=dict)


def executor_memory_gb(config: dict):
    """Memory of one executor in GB: heap + overhead, plus the off-heap
    size when off-heap memory is enabled. Takes scalars or arrays, like
    :func:`resource`."""
    mem = config["spark.executor.memory"] + config["spark.executor.memoryOverhead"] / 1024.0
    return mem + config["spark.memory.offHeap.enabled"] * config["spark.memory.offHeap.size"]


def resource(config: dict) -> float:
    """White-box resource function R(x): vcores + ``MEM_CORE_PRICE_RATIO`` × memory-GB.

    Counts executors (instances × cores, instances × memory) plus the
    driver. Off-heap memory is charged when enabled. ``config`` may map
    each name to an array with one value per config (the off-heap flag
    as 0/1), giving every config's R(x) in one call.
    """
    inst = config["spark.executor.instances"]
    cores = config["spark.executor.cores"]
    vcores = inst * cores + config["spark.driver.cores"]
    mem_gb = inst * executor_memory_gb(config) + config["spark.driver.memory"]
    return vcores + MEM_CORE_PRICE_RATIO * mem_gb


def objective(runtime_s: float, config: dict, beta: float) -> float:
    """Generalized objective f(x) = T^beta * R^(1-beta)."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must be in [0, 1]")
    r = resource(config)
    return (max(runtime_s, 1e-9) ** beta) * (r ** (1.0 - beta))


def execution_cost(runtime_s: float, config: dict) -> float:
    """Execution cost = runtime × resource (f at beta=0.5, squared)."""
    return max(runtime_s, 1e-9) * resource(config)


@dataclass
class TuningProblem:
    """A tuning task (Eq. 1): objective tendency ``beta`` under the two
    bounds ``T(x) <= t_max`` on the black-box runtime and
    ``R(x) <= r_max`` on the white-box resource; ``None`` is unbounded."""

    beta: float = 0.5
    t_max: float | None = None
    r_max: float | None = None

    def value(self, result: ExecResult, config: dict) -> float:
        return objective(result.runtime_s, config, self.beta)

    def feasible(self, result: ExecResult, config: dict) -> bool:
        return (
            result.feasible
            and (self.t_max is None or result.runtime_s <= self.t_max)
            and (self.r_max is None or resource(config) <= self.r_max)
        )
