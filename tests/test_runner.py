"""Tests for the real-workload profiling runner (simulator calibration)."""
import numpy as np
import pytest

from repro.simcluster.eventlog import meta_features
from repro.simcluster.profile import PROFILES
from repro.workloads.runner import WORKLOAD_NAMES, RunMetrics, run_workload


#: (input_mb, shuffle_mb, rows_in, rows_out, stage shuffle MB, stage ops) at
#: sf=0.002, recorded with one profiler function per workload before they
#: became one table. PageRank's three iterations shuffle three times what
#: its stages carry.
_RECORDED = {
    "wordcount": (0.130968, 0.05210139, 1200, 726, 0.05210139,
                  (("flatMap", "map"), ("groupBy", "aggregate"))),
    "pagerank": (0.005832, 0.0104976, 243, 50, 0.0034992,
                 (("join", "map", "cache"), ("groupBy", "aggregate"))),
    "sql_feature_calculation": (0.487245, 0.024362250000000002, 3000, 5, 0.024362250000000002,
                                (("filter", "map"), ("groupBy", "aggregate"))),
}


class TestRunner:
    @pytest.mark.parametrize("name", sorted(_RECORDED))
    def test_profile_matches_recorded(self, spark, name):
        in_mb, sh_mb, rows_in, rows_out, stage_mb, ops = _RECORDED[name]
        m = run_workload(spark, name, sf=0.002)
        assert (m.input_mb, m.shuffle_mb, m.rows_in, m.rows_out) == (
            pytest.approx(in_mb, rel=1e-12), pytest.approx(sh_mb, rel=1e-12), rows_in, rows_out)
        assert [s["ops"] for s in m.stages] == list(ops)
        stage = pytest.approx(stage_mb, rel=1e-12)
        assert [(s["shuffle_write_mb"], s["shuffle_read_mb"]) for s in m.stages] == [
            (stage, 0.0), (0.0, stage)]

    def test_all_simulated_families_profilable(self):
        # every HiBench-lite + SQL simulator profile has a real runner
        for name in WORKLOAD_NAMES:
            assert name in PROFILES

    def test_wordcount_metrics(self, spark):
        m = run_workload(spark, "wordcount", sf=0.002)
        assert m.wall_s > 0 and m.input_mb > 0 and m.rows_out > 0
        assert 0.0 < m.shuffle_frac < 1.0  # aggregation shrinks data

    def test_sort_shuffles_everything(self, spark):
        m = run_workload(spark, "sort", sf=0.002)
        assert m.shuffle_frac == pytest.approx(1.0)

    def test_sql_task_runs(self, spark):
        m = run_workload(spark, "sql_data_selection", sf=0.002)
        assert m.rows_out > 0 and m.input_mb > 0

    def test_unknown_workload(self, spark):
        with pytest.raises(KeyError):
            run_workload(spark, "nope")

    def test_meta_features_from_real_run(self, spark):
        m = run_workload(spark, "wordcount", sf=0.002)

        class R:  # minimal ExecResult stand-in carrying the metrics
            metrics = m.metrics_dict()

        v = meta_features(R())
        assert v.shape == (75,) and np.all(np.isfinite(v)) and v.any()
