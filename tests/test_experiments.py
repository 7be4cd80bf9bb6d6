"""Integration tests for the table-reproduction experiments.

Budgets here are tiny (smoke-level); the full-budget numbers are
produced by the benchmarks and recorded in EXPERIMENTS.md.
"""
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.experiments import ablations, harness, hibench, table1, table2, table3, table4, table5
from repro.experiments.registry import EXPERIMENTS

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _python(*args):
    """A fresh interpreter that imports ``repro`` from this checkout."""
    env = os.environ | {"PYTHONPATH": str(pathlib.Path(repro.__file__).parents[1])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


class TestTable1:
    def test_matches_paper_exactly(self):
        assert table1.run() == table1.PAPER_TABLE1

    def test_format(self):
        out = table1.format_table()
        assert "Ours" in out and "CherryPick" in out and "✓" in out


class TestTable2:
    @pytest.fixture(scope="class")
    def rows(self):
        return table2.run(budget=8, seed=0)

    def test_sixteen_rows(self, rows):
        assert len(rows) == 16  # 8 tasks × (Manual, Ours)

    def test_manual_configs_match_paper(self, rows):
        fe_manual = rows[0]
        assert (fe_manual.instances, fe_manual.cores, fe_manual.memory_gb) == (300, 2, 8)

    def test_ours_cuts_cost(self, rows):
        avg = table2.avg_reduction(rows)
        assert avg["cost"] > 20.0  # even at smoke budget, big cost cuts

    def test_iteration_recorded(self, rows):
        for i in range(1, len(rows), 2):
            assert 1 <= rows[i].iteration <= 8

    def test_format(self, rows):
        out = table2.format_table(rows)
        assert "Avg reduction" in out and "paper" in out


class TestTable3:
    @pytest.fixture(scope="class")
    def res(self):
        return table3.run(n_tasks=4, budget=8, seed=0)

    def test_metrics_present(self, res):
        for key in ("memory", "cpu", "runtime"):
            assert key in res.reduction_under and key in res.reduction_post

    def test_post_memory_saves(self, res):
        assert res.reduction_post["memory"] > 0.0

    def test_curve_monotone(self, res):
        assert len(res.objective_curve) == 8
        assert np.all(np.diff(res.objective_curve) >= -1e-9)

    def test_format(self, res):
        out = table3.format_table(res)
        assert "Memory usage" in out and "paper" in out


class TestTable4:
    @pytest.fixture(scope="class")
    def rows(self):
        return table4.run(source_budget=10, seed=0)

    def test_paper_pairs(self, rows):
        assert [(r.target, r.source) for r in rows] == list(table4.PAIRS)

    def test_costs_positive(self, rows):
        for r in rows:
            assert r.default > 0 and r.manual > 0 and all(t > 0 for t in r.top)

    def test_reduction_ranges(self, rows):
        red = table4.reduction_vs(rows)
        assert "default" in red and "manual" in red

    def test_format(self, rows):
        assert "Top1" in table4.format_table(rows)


class TestTable5:
    @pytest.fixture(scope="class")
    def rows(self):
        return table5.run(n_samples=60, seed=0)

    def test_top10(self, rows):
        assert len(rows) == 10
        assert rows[0].mean >= rows[-1].mean

    def test_resource_params_dominate(self, rows):
        # paper's #1/#2 are executor instances and memory; at minimum the
        # resource/parallelism block must fill the top ranks here
        top4 = {r.name for r in rows[:4]}
        assert "spark.executor.instances" in top4

    def test_std_nonnegative(self, rows):
        assert all(r.std >= 0 for r in rows)

    def test_format(self, rows):
        out = table5.format_table(rows)
        assert "spark.executor.instances" in out


class TestHarness:
    def test_evaluator_datasize_drift(self):
        from repro.simcluster import ClusterSimulator, get_profile

        ev = harness.SimEvaluator(get_profile("wordcount"), ClusterSimulator(), seed=0)
        sizes = {round(ev.datasize(i)) for i in range(5)}
        assert len(sizes) > 1

    def test_default_constraints_are_2x(self):
        from repro.core.config_space import ConfigSpace
        from repro.core.objective import resource
        from repro.simcluster import ClusterSimulator, get_profile

        space = ConfigSpace()
        sim = ClusterSimulator()
        ref = space.default_config()
        cons = harness.default_constraints(space, get_profile("wordcount"), sim, ref)
        kinds = {c.metric for c in cons}
        assert kinds == {"runtime", "resource"}
        res_c = next(c for c in cons if c.metric == "resource")
        assert res_c.threshold == pytest.approx(2.0 * resource(ref))

    def test_run_tuning_budget(self):
        from repro.baselines.base import Tuner
        from repro.core.config_space import ConfigSpace
        from repro.core.objective import ExecResult, TuningProblem

        class Default(Tuner):
            def suggest(self):
                return self.space.default_config()

        class Evaluator:
            def __init__(self):
                self.calls = []

            def evaluate(self, config, it):
                self.calls.append(it)
                return ExecResult(runtime_s=10, mem_gbh=1, cpu_coreh=1, datasize_mb=1000)

        ev = Evaluator()
        h = harness.run_tuning(Default(ConfigSpace(), TuningProblem(beta=1.0)), ev, budget=7)
        assert len(h) == 7 and ev.calls == list(range(7))


class TestHiBenchSmoke:
    def test_two_methods_one_task(self):
        from repro.baselines import RandomSearchTuner
        from repro.core.controller import OnlineTuner

        res = hibench.run(
            objective="cost", budget=8, seeds=(0,), tasks=("wordcount",),
            methods=(RandomSearchTuner, OnlineTuner),
        )
        assert res.relative["Random"]["wordcount"] == pytest.approx(0.0)
        assert "wordcount" in res.relative["Ours"]
        assert "cost reduction" in hibench.format_table(res)


class TestAblationsSmoke:
    def test_safety_structure(self):
        s = ablations.safety(tasks=("wordcount",), budget=8, seeds=(0,))
        assert 0 <= s.safe_pct_with <= 100 and 0 <= s.safe_pct_without <= 100

    def test_agd_structure(self):
        a = ablations.agd(tasks=("wordcount",), budget=8, seeds=(0,))
        assert "wordcount" in a.per_task


class TestRegistry:
    def test_one_entry_per_saved_result(self):
        stems = {p.stem for p in (ROOT / "benchmarks" / "results").glob("*.txt")}
        assert set(EXPERIMENTS) == stems

    def test_cli_prints_the_saved_text(self):
        proc = _python("-m", "repro.experiments", "table1")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == table1.format_table() + "\n"

    def test_cli_rejects_unknown_name(self):
        proc = _python("-m", "repro.experiments", "table9")
        assert proc.returncode == 2
        assert all(name in proc.stderr for name in EXPERIMENTS)

    def test_hibench_import_stays_small(self):
        proc = _python("-c", "import sys, repro.experiments.hibench; print(*sys.modules)")
        assert proc.returncode == 0, proc.stderr
        loaded = proc.stdout.split()
        assert not [m for m in loaded if m.startswith(("repro.experiments.table", "repro.workloads"))
                    or m in ("repro.experiments.ablations", "repro.experiments.registry")]
