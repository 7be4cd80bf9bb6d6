"""Profiling runner: execute HiBench-lite workloads on real Spark and
extract the calibration quantities behind the simulator profiles.

For each workload family this measures wall time and estimates
input/shuffle volumes from the actual data (row counts × sampled row
widths — Spark's per-stage shuffle byte counters are not exposed to
PySpark without a JVM listener, so volumes are derived from the data
the job demonstrably moved). The result carries the same ``stages``
metric structure the simulator emits, so 75-dim meta-features
(:mod:`repro.simcluster.eventlog`) can be computed for *real* runs too.
"""
from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

from pyspark.sql import DataFrame, SparkSession

from repro import synth_data
from repro.workloads import bayes, kmeans, lr, nweight, pagerank, sortbench, sql_tasks, svd, wordcount


def _df_mb(df: DataFrame, rows: int | None = None, sample: int = 200) -> float:
    """Approximate in-memory MB of a DataFrame from sampled row widths."""
    n = rows if rows is not None else df.count()
    if n == 0:
        return 0.0
    pdf = df.limit(sample).toPandas()
    if len(pdf) == 0:
        return 0.0
    bytes_per_row = max(pdf.memory_usage(index=False, deep=True).sum() / len(pdf), 1.0)
    return n * bytes_per_row / 1e6


@dataclass
class RunMetrics:
    """One profiled execution of a real workload."""

    name: str
    wall_s: float
    input_mb: float
    shuffle_mb: float
    rows_in: int
    rows_out: int
    stages: list[dict] = field(default_factory=list)

    @property
    def shuffle_frac(self) -> float:
        return self.shuffle_mb / self.input_mb if self.input_mb else 0.0

    def metrics_dict(self) -> dict:
        """Shape-compatible with ``ExecResult.metrics`` for eventlog."""
        return {"stages": self.stages, "workload": self.name}


def _mk_stages(wall_s: float, input_mb: float, shuffle_mb: float,
               rows_in: int, ops_map: tuple, ops_red: tuple) -> list[dict]:
    half = wall_s * 500.0  # ms, split evenly between the two stage shapes
    return [
        {
            "n_tasks": max(1, rows_in // 10_000), "duration_ms": half,
            "cpu_ms": half * 0.7, "gc_ms": half * 0.05, "input_mb": input_mb,
            "shuffle_read_mb": 0.0, "shuffle_write_mb": shuffle_mb,
            "spill_mb": 0.0, "peak_mem_mb": input_mb, "ops": ops_map,
        },
        {
            "n_tasks": 64, "duration_ms": half, "cpu_ms": half * 0.5,
            "gc_ms": half * 0.05, "input_mb": 0.0,
            "shuffle_read_mb": shuffle_mb, "shuffle_write_mb": 0.0,
            "spill_mb": 0.0, "peak_mem_mb": shuffle_mb, "ops": ops_red,
        },
    ]


@dataclass(frozen=True)
class _Workload:
    """How one workload family is run and profiled."""

    inputs: Callable  # (spark, sf, seed) → input DataFrames; the first gives rows_in
    job: Callable  # (spark, seed, *inputs) → output DataFrame, or a driver-side result
    shuffle: Callable  # (input MB, output, output rows) → MB one shuffle stage moves
    ops: tuple[tuple, tuple]  # operators of the map and the reduce stage
    rows_out: int | None = None  # a driver-side result's fixed row count
    shuffle_rounds: int = 1  # shuffles of one stage's size the job makes in all


def _output_mb(in_mb: float, out: DataFrame, rows_out: int) -> float:
    return _df_mb(out, rows_out)


def _input_share(frac: float) -> Callable:
    return lambda in_mb, out, rows_out: in_mb * frac


def _sql(task: Callable, inputs: Callable) -> _Workload:
    return _Workload(inputs, lambda spark, seed, *dfs: task(*dfs),
                     lambda in_mb, out, rows_out: max(_df_mb(out, rows_out), in_mb * 0.05),
                     (("filter", "map"), ("groupBy", "aggregate")))


def _kv(spark, sf, seed):
    return (synth_data.kv_records(spark, n=max(100, int(1_000_000 * sf)), seed=seed),)


def _points(n: int) -> Callable:
    return lambda spark, sf, seed: (synth_data.points(spark, n=max(200, int(n * sf)), seed=seed),)


def _lineitem(spark, sf, seed):
    return (synth_data.lineitem(spark, sf=sf, seed=seed),)


_WORKLOADS = {
    "wordcount": _Workload(
        lambda spark, sf, seed: (synth_data.text_corpus(
            spark, n_lines=max(100, int(600_000 * sf)), seed=seed),),
        lambda spark, seed, text: wordcount.wordcount(text),
        _output_mb,  # word/count pairs cross the shuffle
        (("flatMap", "map"), ("groupBy", "aggregate"))),
    "sort": _Workload(_kv, lambda spark, seed, recs: sortbench.sort_records(recs),
                      _input_share(1.0), (("map", "sortBy"), ("sortBy",))),
    "terasort": _Workload(_kv, lambda spark, seed, recs: sortbench.terasort(recs, partitions=8),
                          _input_share(1.0), (("map", "sortBy"), ("sortBy", "repartition"))),
    "pagerank": _Workload(
        lambda spark, sf, seed: (synth_data.edge_list(
            spark, n_nodes=max(50, int(20_000 * sf)), n_edges=max(200, int(120_000 * sf)),
            seed=seed),),
        lambda spark, seed, edges: pagerank.pagerank(spark, edges, iterations=3),
        _input_share(0.6), (("join", "map", "cache"), ("groupBy", "aggregate")),
        shuffle_rounds=3),
    "kmeans": _Workload(
        _points(500_000),
        lambda spark, seed, pts: kmeans.kmeans(pts, k=4, iterations=3, seed=seed),
        _input_share(0.02), (("map", "cache"), ("aggregate",)), rows_out=4),
    "bayes": _Workload(
        lambda spark, sf, seed: (synth_data.labeled_corpus(
            spark, n_docs=max(100, int(200_000 * sf)), seed=seed),),
        lambda spark, seed, docs: bayes.train_naive_bayes(docs),
        _output_mb, (("flatMap", "map"), ("groupBy", "aggregate"))),
    "nweight": _Workload(
        lambda spark, sf, seed: (synth_data.edge_list(
            spark, n_nodes=max(30, int(3_000 * sf)), n_edges=max(100, int(30_000 * sf)),
            seed=seed),),
        lambda spark, seed, edges: nweight.nweight(edges, hops=2),
        _output_mb, (("join", "map", "cache"), ("groupBy", "aggregate"))),
    "lr": _Workload(
        lambda spark, sf, seed: (synth_data.labeled_points(
            spark, n=max(200, int(400_000 * sf)), seed=seed),),
        lambda spark, seed, df: lr.logistic_regression(df, iterations=3),
        _input_share(0.01), (("map", "cache"), ("aggregate",)), rows_out=1),
    "svd": _Workload(_points(400_000), lambda spark, seed, pts: svd.singular_values(pts),
                     _input_share(0.05), (("map", "cache"), ("aggregate",)), rows_out=1),
    "sql_data_selection": _sql(sql_tasks.data_selection, _lineitem),
    "sql_skew_detection": _sql(sql_tasks.skew_detection, _lineitem),
    "sql_feature_calculation": _sql(
        sql_tasks.feature_calculation,
        lambda spark, sf, seed: (synth_data.orders(spark, sf=sf),
                                 synth_data.customer(spark, sf=sf))),
    "sql_data_preprocessing": _sql(sql_tasks.data_preprocessing,
                                   lambda spark, sf, seed: (synth_data.orders(spark, sf=sf),)),
}

WORKLOAD_NAMES = tuple(_WORKLOADS)


def run_workload(spark: SparkSession, name: str, *, sf: float = 0.01, seed: int = 0) -> RunMetrics:
    """Run one workload family at scale factor ``sf`` and profile it."""
    w = _WORKLOADS.get(name)
    if w is None:
        raise KeyError(f"unknown workload {name!r}; known: {sorted(_WORKLOADS)}")
    inputs = w.inputs(spark, sf, seed)
    rows = inputs[0].count()
    in_mb = _df_mb(inputs[0], rows) + sum(_df_mb(df) for df in inputs[1:])
    t0 = time.perf_counter()
    out = w.job(spark, seed, *inputs)
    rows_out = out.count() if w.rows_out is None else w.rows_out
    wall = time.perf_counter() - t0
    sh = w.shuffle(in_mb, out, rows_out)
    return RunMetrics(name, wall, in_mb, sh * w.shuffle_rounds, rows, rows_out,
                      _mk_stages(wall, in_mb, sh, rows, *w.ops))
