"""Profiling runner: run the HiBench-lite workloads on real Spark and read
the counters Spark keeps for each of their stages.

A run reads its inputs from Parquet files and runs the job under its own
job group; a DataFrame result goes to the ``noop`` sink, so that Catalyst
prunes no operator (a closing ``count()`` drops a sort). The run's stages
are the group's completed stages, as per-task means of the quantities
:mod:`repro.simcluster.eventlog` summarizes, so real runs have
meta-features too.

The counters come from Spark's status store through two private JVM
calls over py4j (``listenerBus`` and ``statusStore``): with the UI off,
no public PySpark API returns per-stage bytes. A third (the session's
``cacheManager``) releases whatever the job cached on its inputs, since
a DataFrame cached inside a workload is not the runner's to unpersist;
the caller's own caches stay.
"""
from __future__ import annotations

import tempfile
import time
import uuid
from collections.abc import Callable
from dataclasses import dataclass, field

from pyspark import SparkContext
from pyspark.sql import DataFrame, SparkSession

from repro import synth_data
from repro.simcluster.profile import PROFILES
from repro.workloads import bayes, kmeans, lr, nweight, pagerank, sortbench, sql_tasks, svd, wordcount

#: Each stage key (eventlog's per-task quantities), with the
#: ``StageData`` counter it averages and that counter's units per key unit.
_COUNTERS = {
    "duration_ms": ("executorRunTime", 1.0),
    "cpu_ms": ("executorCpuTime", 1e6),  # ns
    "gc_ms": ("jvmGcTime", 1.0),
    "input_mb": ("inputBytes", 1e6),
    "shuffle_read_mb": ("shuffleReadBytes", 1e6),
    "shuffle_write_mb": ("shuffleWriteBytes", 1e6),
    "spill_mb": ("diskBytesSpilled", 1e6),
    "peak_mem_mb": ("peakExecutionMemory", 1e6),
}


@dataclass
class RunMetrics:
    """One profiled execution of a real workload."""

    name: str
    wall_s: float
    input_mb: float
    shuffle_mb: float  # shuffle bytes written, over all stages
    stages: list[dict] = field(default_factory=list)

    @property
    def shuffle_frac(self) -> float:
        return self.shuffle_mb / self.input_mb if self.input_mb else 0.0


@dataclass(frozen=True)
class _Workload:
    """How one workload family is run."""

    inputs: Callable  # (spark, sf, seed) → input DataFrames
    job: Callable  # (spark, seed, *inputs) → output DataFrame, or a driver-side result


def _sql(task: Callable, inputs: Callable) -> _Workload:
    return _Workload(inputs, lambda spark, seed, *dfs: task(*dfs))


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
        lambda spark, seed, text: wordcount.wordcount(text)),
    "sort": _Workload(_kv, lambda spark, seed, recs: sortbench.sort_records(recs)),
    "terasort": _Workload(_kv, lambda spark, seed, recs: sortbench.terasort(recs, partitions=8)),
    "pagerank": _Workload(
        lambda spark, sf, seed: (synth_data.edge_list(
            spark, n_nodes=max(50, int(20_000 * sf)), n_edges=max(200, int(120_000 * sf)),
            seed=seed),),
        lambda spark, seed, edges: pagerank.pagerank(spark, edges, iterations=3)),
    "kmeans": _Workload(
        _points(500_000),
        lambda spark, seed, pts: kmeans.kmeans(pts, k=4, iterations=3, seed=seed)),
    "bayes": _Workload(
        lambda spark, sf, seed: (synth_data.labeled_corpus(
            spark, n_docs=max(100, int(200_000 * sf)), seed=seed),),
        lambda spark, seed, docs: bayes.train_naive_bayes(docs)),
    "nweight": _Workload(
        lambda spark, sf, seed: (synth_data.edge_list(
            spark, n_nodes=max(30, int(3_000 * sf)), n_edges=max(100, int(30_000 * sf)),
            seed=seed),),
        lambda spark, seed, edges: nweight.nweight(edges, hops=2)),
    "lr": _Workload(
        lambda spark, sf, seed: (synth_data.labeled_points(
            spark, n=max(200, int(400_000 * sf)), seed=seed),),
        lambda spark, seed, df: lr.logistic_regression(df, iterations=3)),
    "svd": _Workload(_points(400_000), lambda spark, seed, pts: svd.singular_values(pts)),
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


def _stages(sc: SparkContext, group: str, name: str) -> list[dict]:
    """The completed stages of ``group``'s jobs, as per-task means. A
    stage that reads shuffle data takes the ops of ``name``'s last
    profile stage, any other stage those of its first."""
    profile = PROFILES[name].stages
    sc._jsc.sc().listenerBus().waitUntilEmpty()  # the store has seen every event
    tracker, store = sc.statusTracker(), sc._jsc.sc().statusStore()
    ids = sorted({s for j in tracker.getJobIdsForGroup(group) for s in tracker.getJobInfo(j).stageIds})
    stages = []
    for data in (store.lastStageAttempt(i) for i in ids):
        if data.status().toString() != "COMPLETE":
            continue  # SKIPPED: the stage's shuffle output was already there
        n = data.numTasks()
        stage = {key: getattr(data, counter)() / unit / n for key, (counter, unit) in _COUNTERS.items()}
        stage["n_tasks"] = n
        stage["ops"] = (profile[-1] if stage["shuffle_read_mb"] > 0 else profile[0]).ops
        stages.append(stage)
    return stages


def run_workload(spark: SparkSession, name: str, *, sf: float = 0.01, seed: int = 0) -> RunMetrics:
    """Run one workload family at scale factor ``sf`` and read its stages."""
    w = _WORKLOADS.get(name)
    if w is None:
        raise KeyError(f"unknown workload {name!r}; known: {sorted(_WORKLOADS)}")
    sc, group = spark.sparkContext, uuid.uuid4().hex
    with tempfile.TemporaryDirectory() as tmp:
        inputs = w.inputs(spark, sf, seed)
        for i, df in enumerate(inputs):
            df.write.parquet(f"{tmp}/{i}")
        # read back outside the group, so no schema job joins the run;
        # Parquet's vectored reads run off the task thread, and Spark's
        # input counter would see only the footers
        read = spark.read.option("parquet.hadoop.vectored.io.enabled", "false")
        inputs = [read.parquet(f"{tmp}/{i}") for i in range(len(inputs))]
        sc.setJobGroup(group, name)
        try:
            t0 = time.perf_counter()
            out = w.job(spark, seed, *inputs)
            if isinstance(out, DataFrame):
                out.write.format("noop").mode("overwrite").save()
            wall = time.perf_counter() - t0
        finally:  # what Scala's clearJobGroup clears; PySpark has none
            for key in ("spark.jobGroup.id", "spark.job.description", "spark.job.interruptOnCancel"):
                sc.setLocalProperty(key, None)
            # every cache built on an input (cascade): pagerank's nodes
            # and bayes' counts, which their lazy results read in the write
            manager = spark._jsparkSession.sharedState().cacheManager()
            for df in inputs:
                manager.uncacheQuery(df._jdf, True, True)
    stages = _stages(sc, group, name)
    input_mb = sum(s["input_mb"] * s["n_tasks"] for s in stages)
    shuffle_mb = sum(s["shuffle_write_mb"] * s["n_tasks"] for s in stages)
    return RunMetrics(name, wall, input_mb, shuffle_mb, stages)
