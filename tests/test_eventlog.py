"""Unit tests for the SparkEventLog meta-feature extraction (§5.1)."""
import numpy as np
import pytest

from repro.core.config_space import ConfigSpace
from repro.core.objective import ExecResult
from repro.simcluster import PROFILES, ClusterSimulator, get_profile
from repro.simcluster.eventlog import (
    _TASK_KEYS, N_META_FEATURES, N_STAGE_FEATURES, N_TASK_FEATURES, meta_features,
)
from repro.simcluster.profile import STAGE_OPS


@pytest.fixture(scope="module")
def runs():
    sim = ClusterSimulator()
    cfg = ConfigSpace().default_config()
    return {
        name: sim.run(get_profile(name), cfg, seed=0)
        for name in ("wordcount", "terasort", "kmeans")
    }


class TestShape:
    def test_paper_split_11_64(self):
        assert N_STAGE_FEATURES == 11
        assert N_TASK_FEATURES == 64
        assert N_META_FEATURES == 75

    def test_vector_length(self, runs):
        for r in runs.values():
            assert meta_features(r).shape == (75,)

    def test_finite(self, runs):
        for r in runs.values():
            assert np.all(np.isfinite(meta_features(r)))

    def test_empty_metrics_zero_vector(self):
        r = ExecResult(runtime_s=1, mem_gbh=1, cpu_coreh=1)
        assert np.allclose(meta_features(r), 0.0)


class TestDiscrimination:
    def test_deterministic(self, runs):
        a = meta_features(runs["wordcount"])
        b = meta_features(runs["wordcount"])
        assert np.array_equal(a, b)

    def test_distinguishes_workloads(self, runs):
        a = meta_features(runs["wordcount"])
        b = meta_features(runs["terasort"])
        assert not np.allclose(a, b)

    def test_op_fractions_in_unit_range(self, runs):
        for r in runs.values():
            ops = meta_features(r)[:11]
            assert np.all((ops >= 0) & (ops <= 1))

    def test_sort_op_flagged_for_terasort(self, runs):
        from repro.simcluster.profile import STAGE_OPS

        i_sort = STAGE_OPS.index("sortBy")
        assert meta_features(runs["terasort"])[i_sort] > 0
        assert meta_features(runs["kmeans"])[i_sort] == 0

    def test_similar_workloads_closer(self):
        sim = ClusterSimulator()
        cfg = ConfigSpace().default_config()
        wc = meta_features(sim.run(get_profile("wordcount"), cfg, seed=0))
        bayes = meta_features(sim.run(get_profile("bayes"), cfg, seed=0))
        kmeans = meta_features(sim.run(get_profile("kmeans"), cfg, seed=0))
        # wordcount and bayes share the flatMap+groupBy shape
        assert np.linalg.norm(wc - bayes) < np.linalg.norm(wc - kmeans)


def _reference_meta_features(result: ExecResult) -> np.ndarray:
    """The meta-features one quantity at a time, each statistic its own
    NumPy call (the extraction as it was before it took one pass)."""
    stages = result.metrics.get("stages", [])
    if not stages:
        return np.zeros(N_META_FEATURES)
    ops_frac = np.array([sum(1 for s in stages if op in s.get("ops", ())) / len(stages)
                         for op in STAGE_OPS])
    task_feats = []
    for key in _TASK_KEYS:
        v = np.array([float(s.get(key, 0.0)) for s in stages])
        counts = np.array([int(s.get("n_tasks", 1)) for s in stages])
        st = np.array([v.mean(), v.std(), v.min(), v.max(), np.percentile(v, 25),
                       np.percentile(v, 50), np.percentile(v, 75), float((v * counts).sum())])
        task_feats.append(np.sign(st) * np.log1p(np.abs(st)))
    return np.concatenate([ops_frac, np.concatenate(task_feats)])


def _stages_result(stages) -> ExecResult:
    return ExecResult(runtime_s=1, mem_gbh=1, cpu_coreh=1, metrics={"stages": stages})


class TestOnePass:
    """The one-pass extraction equals the per-quantity loop byte for byte."""

    def test_every_profile(self):
        sim, space = ClusterSimulator(), ConfigSpace()
        rng = np.random.default_rng(0)
        configs = [space.default_config()] + space.sample_random(2, rng)
        for name, profile in PROFILES.items():
            for cfg in configs:
                r = sim.run(profile, cfg, seed=1)
                assert meta_features(r).tobytes() == _reference_meta_features(r).tobytes(), name

    def test_missing_keys_and_task_counts(self):
        stages = [
            {"ops": ("map",), "duration_ms": 120.0, "cpu_ms": 80.5, "n_tasks": 4},
            {"duration_ms": 3.25, "input_mb": 1e4, "spill_mb": -0.0},
            {"ops": ("groupBy", "map"), "peak_mem_mb": 512.0, "n_tasks": 200,
             "shuffle_read_mb": 7.5},
            {},
        ]
        r = _stages_result(stages)
        assert meta_features(r).tobytes() == _reference_meta_features(r).tobytes()

    def test_single_stage(self):
        r = _stages_result([{"ops": ("sortBy",), "duration_ms": 40.0, "gc_ms": 1.5,
                             "n_tasks": 16, "shuffle_write_mb": 2.0}])
        assert meta_features(r).tobytes() == _reference_meta_features(r).tobytes()
