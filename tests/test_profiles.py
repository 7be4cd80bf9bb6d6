"""Unit tests for workload profiles and the production population."""
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config_space import ConfigSpace
from repro.simcluster.profile import (
    PROFILES, STAGE_OPS, WorkloadProfile, get_profile, production_population,
)


class TestProfiles:
    def test_sixteen_plus_profiles(self):
        assert len(PROFILES) >= 16  # §6.1: larger set of 16 tasks for meta-learning

    def test_hibench_six_present(self):
        for name in ("bayes", "kmeans", "nweight", "wordcount", "pagerank", "terasort"):
            assert name in PROFILES

    def test_meta_learning_sources_present(self):
        for name in ("sort", "lr", "svd"):
            assert name in PROFILES

    def test_production_families_present(self):
        for name in ("feature_extraction", "user_traffic", "dau_analysis", "log_processing"):
            assert name in PROFILES

    def test_sql_tasks_flagged(self):
        for name, p in PROFILES.items():
            assert p.sql == name.startswith("sql_")

    def test_stage_ops_valid(self):
        for p in PROFILES.values():
            for s in p.stages:
                assert set(s.ops) <= set(STAGE_OPS)

    def test_numeric_sanity(self):
        for p in PROFILES.values():
            assert p.base_datasize_mb > 0 and p.iterations >= 1
            assert 0 <= p.cache_frac <= 1 and p.skew >= 0
            for s in p.stages:
                assert s.cpu_ms_per_mb > 0 and s.shuffle_frac >= 0

    def test_first_stage_reads_input(self):
        for p in PROFILES.values():
            assert p.stages[0].input_frac > 0
            assert not p.stages[0].is_shuffle_read

    def test_iterative_profiles_cache(self):
        for name in ("kmeans", "lr", "svd", "pagerank"):
            assert PROFILES[name].cache_frac > 0
            assert PROFILES[name].iterations > 1

    def test_get_profile_unknown(self):
        with pytest.raises(KeyError):
            get_profile("nope")

    def test_scaled(self):
        p = replace(get_profile("wordcount"), base_datasize_mb=123.0)
        assert p.base_datasize_mb == 123.0
        assert p.stages == get_profile("wordcount").stages


class TestPopulation:
    def test_size_and_structure(self):
        pop = production_population(25, seed=0)
        assert len(pop) == 25
        for prof, manual in pop:
            assert isinstance(prof, WorkloadProfile)
            assert "spark.executor.instances" in manual

    def test_deterministic(self):
        a = production_population(10, seed=3)
        b = production_population(10, seed=3)
        assert [p.name for p, _ in a] == [p.name for p, _ in b]
        assert [m for _, m in a] == [m for _, m in b]

    def test_manual_configs_cliponto_space(self):
        space = ConfigSpace()
        for prof, manual in production_population(20, seed=1):
            cfg = space.clip(space.default_config() | manual)
            assert cfg["spark.executor.instances"] >= 1

    def test_sizes_jittered(self):
        pop = production_population(30, seed=0)
        sizes = [p.base_datasize_mb for p, _ in pop]
        assert len(set(sizes)) > 20

    def test_manual_overprovisioned_vs_blocks(self):
        # manual slot counts are at least ~1x the block count (engineers
        # never under-provision on purpose)
        for prof, manual in production_population(30, seed=0):
            if prof.sql:
                continue
            blocks = prof.base_datasize_mb / 128.0
            slots = manual["spark.executor.instances"] * manual["spark.executor.cores"]
            assert slots >= min(blocks, 40) * 0.9
