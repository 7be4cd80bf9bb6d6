"""Tests for the real-workload profiling runner: its byte and time
figures are Spark's own stage counters, its ops the profile's."""
import numpy as np
import pytest
from pyspark import StorageLevel

from repro.core.objective import ExecResult
from repro.simcluster.eventlog import _TASK_KEYS, meta_features
from repro.simcluster.profile import PROFILES
from repro.workloads import runner
from repro.workloads.runner import WORKLOAD_NAMES, run_workload

SF = 0.002


@pytest.fixture(scope="module")
def measured(spark):
    """One run per workload at ``SF``, made on first use. ``get.persistent``
    holds the session's persistent RDD count before and after each run,
    which a cache of the caller's (``get.mine``) is part of."""
    persistent_rdds = spark.sparkContext._jsc.sc().getPersistentRDDs
    runs, persistent = {}, {}

    def get(name):
        if name not in runs:
            before = persistent_rdds().size()
            runs[name] = run_workload(spark, name, sf=SF)
            persistent[name] = (before, persistent_rdds().size())
        return runs[name]

    get.mine = spark.range(4).cache()
    get.mine.count()
    get.persistent = persistent
    yield get
    get.mine.unpersist()


def _bytes(stages, key):
    """The bytes of one counter (an ``_mb`` per-task mean) over ``stages``."""
    return round(sum(s[key] * s["n_tasks"] for s in stages) * 1e6)


class TestRunner:
    @pytest.mark.parametrize("name", ["pagerank", "sql_feature_calculation", "wordcount"])
    def test_profile_matches_recorded(self, measured, name):
        # the run has the map and reduce sides its profile records: its
        # first stage reads input with the profile's first ops, its last
        # reads shuffle data with the profile's last ops
        profile = PROFILES[name].stages
        assert profile[0].shuffle_frac > 0 and profile[-1].is_shuffle_read
        m = measured(name)
        first, last = m.stages[0], m.stages[-1]
        assert first["input_mb"] > 0 and first["shuffle_read_mb"] == 0
        assert first["ops"] == profile[0].ops
        assert last["shuffle_read_mb"] > 0 and last["ops"] == profile[-1].ops
        assert m.shuffle_mb > 0

    def test_runs_leave_no_cache_behind(self, measured):
        # kmeans and lr cache their input, pagerank and bayes an
        # intermediate that their lazy result reads: every run releases
        # what it cached, and only that
        for name in WORKLOAD_NAMES:
            measured(name)
            before, after = measured.persistent[name]
            assert after == before, name
        assert measured.mine.storageLevel != StorageLevel.NONE

    def test_all_simulated_families_profilable(self):
        # every HiBench-lite + SQL simulator profile has a real runner
        for name in WORKLOAD_NAMES:
            assert name in PROFILES

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_every_stage_is_measured(self, measured, name):
        m = measured(name)
        assert m.stages and m.input_mb > 0
        for s in m.stages:
            assert s["n_tasks"] >= 1
            counters = np.array([s[key] for key in _TASK_KEYS])
            assert np.all(np.isfinite(counters)) and np.all(counters >= 0)

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_stage_ops_come_from_the_profile(self, measured, name):
        profile_ops = [p.ops for p in PROFILES[name].stages]
        assert all(s["ops"] in profile_ops for s in measured(name).stages)

    def test_wordcount_metrics(self, measured):
        m = measured("wordcount")
        assert m.wall_s > 0 and m.input_mb > 0 and m.shuffle_mb > 0
        assert m.shuffle_frac == m.shuffle_mb / m.input_mb
        # the reduce side reads every byte the map side wrote
        assert _bytes(m.stages, "shuffle_read_mb") == _bytes(m.stages, "shuffle_write_mb") > 0

    def test_sort_shuffles_everything(self, measured):
        # every shuffled byte reaches the single sorted output
        m = measured("sort")
        written = _bytes(m.stages, "shuffle_write_mb")
        assert written > 0 and written == round(m.shuffle_mb * 1e6)
        assert _bytes(m.stages, "shuffle_read_mb") == written

    def test_sql_task_runs(self, measured):
        m = measured("sql_data_selection")
        assert m.wall_s > 0 and m.input_mb > 0
        assert m.stages[0]["ops"] == PROFILES["sql_data_selection"].stages[0].ops

    @pytest.mark.parametrize("name", ["sort", "terasort"])
    def test_sorts_shuffle_every_key(self, spark, measured, name):
        # each input row's 8-byte key crosses the shuffle; a sort that
        # Catalyst pruned away would shuffle a few partial counts only
        rows = runner._kv(spark, SF, 0)[0].count()
        read = max(s["shuffle_read_mb"] * s["n_tasks"] for s in measured(name).stages)
        assert read * 1e6 >= 8 * rows

    def test_input_counts_the_parquet_files(self, spark, measured, tmp_path):
        # the map stage reads every data page of the input files, not
        # only their footers
        runner._kv(spark, SF, 0)[0].write.parquet(str(tmp_path / "kv"))
        size = sum(f.stat().st_size for f in (tmp_path / "kv").glob("*.parquet"))
        read = max(s["input_mb"] * s["n_tasks"] for s in measured("sort").stages)
        assert read * 1e6 >= size

    def test_bytes_repeat_across_runs(self, spark, measured):
        # another run's stages would add to one of the two lists
        def volumes(m):
            return [(s["n_tasks"], s["input_mb"], s["shuffle_read_mb"], s["shuffle_write_mb"])
                    for s in m.stages]

        assert volumes(run_workload(spark, "terasort", sf=SF)) == volumes(measured("terasort"))

    def test_job_group_cleared(self, spark, measured, monkeypatch):
        def cleared():
            keys = ("spark.jobGroup.id", "spark.job.description", "spark.job.interruptOnCancel")
            return all(spark.sparkContext.getLocalProperty(k) is None for k in keys)

        measured("svd")
        assert cleared()

        def fail(spark, seed, pts):
            raise RuntimeError("job failed")

        monkeypatch.setitem(runner._WORKLOADS, "svd", runner._Workload(runner._points(400_000), fail))
        with pytest.raises(RuntimeError, match="job failed"):
            run_workload(spark, "svd", sf=SF)
        assert cleared()

    def test_unknown_workload(self, spark):
        with pytest.raises(KeyError):
            run_workload(spark, "nope")

    def test_meta_features_from_real_run(self, measured):
        m = measured("wordcount")
        r = ExecResult(runtime_s=m.wall_s, mem_gbh=1, cpu_coreh=1, metrics={"stages": m.stages})
        v = meta_features(r)
        assert v.shape == (75,) and np.all(np.isfinite(v)) and v.any()
