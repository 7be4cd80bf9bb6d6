"""Unit tests for the cluster execution simulator substrate."""
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config_space import ConfigSpace
from repro.simcluster import ClusterSimulator, get_profile


@pytest.fixture(scope="module")
def space():
    return ConfigSpace()


@pytest.fixture(scope="module")
def sim():
    return ClusterSimulator()


def _cfg(space, **over):
    renamed = {f"spark.{k.replace('_', '.')}": v for k, v in over.items()}
    return space.clip(space.default_config() | renamed)


class TestDeterminism:
    def test_same_seed_same_result(self, space, sim):
        c = space.default_config()
        p = get_profile("terasort")
        a = sim.run(p, c, seed=5)
        b = sim.run(p, c, seed=5)
        assert a.runtime_s == b.runtime_s

    def test_noise_varies_with_seed(self, space, sim):
        c = space.default_config()
        p = get_profile("terasort")
        a = sim.run(p, c, seed=1)
        b = sim.run(p, c, seed=2)
        assert a.runtime_s != b.runtime_s
        # but only by a few percent (σ≈3% log-normal)
        assert abs(a.runtime_s - b.runtime_s) / a.runtime_s < 0.3


class TestResourceScaling:
    def test_more_instances_faster_big_job(self, space, sim):
        p = get_profile("feature_extraction")
        slow = sim.run(p, _cfg(space, executor_instances=20), seed=1)
        fast = sim.run(p, _cfg(space, executor_instances=200), seed=1)
        assert fast.runtime_s < slow.runtime_s

    def test_diminishing_returns_and_overhead(self, space, sim):
        # a tiny job gains nothing from 700 executors vs 50
        p = replace(get_profile("sql_data_selection"), base_datasize_mb=400)
        mid = sim.run(p, _cfg(space, executor_instances=50), seed=1)
        huge = sim.run(p, _cfg(space, executor_instances=700), seed=1)
        assert huge.runtime_s >= mid.runtime_s * 0.8

    def test_billing_formulas(self, space, sim):
        c = _cfg(space, executor_instances=10, executor_cores=4, executor_memory=8)
        r = sim.run(get_profile("wordcount"), c, seed=0)
        hours = r.runtime_s / 3600.0
        mem_gb = 10 * (8 + c["spark.executor.memoryOverhead"] / 1024.0) + c["spark.driver.memory"]
        cores = 10 * 4 + c["spark.driver.cores"]
        assert r.mem_gbh == pytest.approx(mem_gb * hours, rel=1e-6)
        assert r.cpu_coreh == pytest.approx(cores * hours, rel=1e-6)

    def test_capacity_cap(self, space):
        small = ClusterSimulator(capacity_cores=64, capacity_mem_gb=256)
        c = _cfg(space, executor_instances=500, executor_cores=4)
        r = small.run(get_profile("wordcount"), c, seed=0)
        # billed at the capped allocation, not the requested 500
        assert r.cpu_coreh <= (64 + 8) * (r.runtime_s / 3600.0) * 1.01


class TestMemoryModel:
    def test_oom_when_memory_tiny_and_partitions_few(self, space, sim):
        c = _cfg(space, executor_instances=4, executor_memory=1,
                 default_parallelism=8, sql_shuffle_partitions=8)
        r = sim.run(get_profile("terasort"), c, seed=0)
        assert not r.feasible

    def test_feasible_with_adequate_memory(self, space, sim):
        c = _cfg(space, executor_instances=32, executor_memory=8,
                 default_parallelism=500)
        r = sim.run(get_profile("terasort"), c, seed=0)
        assert r.feasible

    def test_spill_slows_execution(self, space, sim):
        p = get_profile("terasort")
        lo = _cfg(space, executor_instances=32, executor_memory=2, default_parallelism=64)
        hi = _cfg(space, executor_instances=32, executor_memory=16, default_parallelism=64)
        r_lo = sim.run(p, lo, seed=0)
        r_hi = sim.run(p, hi, seed=0)
        assert r_lo.runtime_s > r_hi.runtime_s

    def test_cache_pressure_for_iterative(self, space, sim):
        p = get_profile("kmeans")
        starved = _cfg(space, executor_instances=4, executor_memory=2)
        cached = _cfg(space, executor_instances=32, executor_memory=16)
        assert sim.run(p, starved, seed=0).runtime_s > sim.run(p, cached, seed=0).runtime_s


class TestSecondOrderKnobs:
    def test_kryo_beats_java(self, space, sim):
        p = get_profile("sort")
        base = dict(space.default_config())
        java = space.clip(base | {"spark.serializer": "java"})
        kryo = space.clip(base | {"spark.serializer": "kryo"})
        assert sim.run(p, kryo, seed=0).runtime_s < sim.run(p, java, seed=0).runtime_s

    def test_zstd_trades_cpu_for_bytes(self, space, sim):
        p = get_profile("sort")
        lz4 = space.clip(space.default_config() | {"spark.io.compression.codec": "lz4"})
        zstd = space.clip(space.default_config() | {"spark.io.compression.codec": "zstd"})
        a, b = sim.run(p, lz4, seed=0), sim.run(p, zstd, seed=0)
        assert a.runtime_s != b.runtime_s  # codec matters either way

    def test_tiny_shuffle_buffer_slower(self, space, sim):
        p = get_profile("terasort")
        small = space.clip(space.default_config() | {"spark.shuffle.file.buffer": 16})
        big = space.clip(space.default_config() | {"spark.shuffle.file.buffer": 128})
        assert sim.run(p, small, seed=0).runtime_s > sim.run(p, big, seed=0).runtime_s

    def test_speculation_mitigates_skew(self, space, sim):
        p = get_profile("sql_skew_detection")  # skew 0.5
        on = space.clip(space.default_config() | {"spark.speculation": True})
        off = space.clip(space.default_config() | {"spark.speculation": False})
        assert sim.run(p, on, seed=0).runtime_s < sim.run(p, off, seed=0).runtime_s

    def test_short_network_timeout_slows_large_clusters(self, space, sim):
        """A network timeout under 90 s slows every stage by 3% on more
        than 300 executors; start-up is not scaled, so the whole run
        slows by a little less."""
        def runtime(workload, instances, timeout):
            c = _cfg(space, executor_instances=instances, network_timeout=timeout)
            return sim.run(get_profile(workload), c, seed=3).runtime_s

        for workload in ("terasort", "wordcount"):
            assert runtime(workload, 300, 60) == runtime(workload, 300, 120)
            for instances in (301, 400):
                ratio = runtime(workload, instances, 60) / runtime(workload, instances, 120)
                assert 1.0 < ratio <= 1.03


class TestMetrics:
    def test_stage_metrics_emitted(self, space, sim):
        r = sim.run(get_profile("pagerank"), space.default_config(), seed=0)
        stages = r.metrics["stages"]
        assert len(stages) == 2 * 8  # 2 stages × 8 iterations
        for s in stages:
            assert s["n_tasks"] >= 1 and s["duration_ms"] > 0

    def test_datasize_override(self, space, sim):
        p = get_profile("wordcount")
        small = sim.run(p, space.default_config(), datasize_mb=1000, seed=0)
        big = sim.run(p, space.default_config(), datasize_mb=60000, seed=0)
        assert big.runtime_s > small.runtime_s
        assert small.datasize_mb == 1000

    def test_failed_run_reports_infeasible_not_crash(self, space, sim):
        c = _cfg(space, executor_instances=2, executor_memory=1,
                 default_parallelism=8, sql_shuffle_partitions=8)
        r = sim.run(get_profile("log_processing"), c, seed=0)
        assert not r.feasible and r.runtime_s > 0
