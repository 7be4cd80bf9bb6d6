"""Unit tests for the generalized objective (Eq. 1) and its two bounds."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config_space import ConfigSpace, hibench_space
from repro.core.objective import (
    ExecResult, TuningProblem, execution_cost, objective, resource,
)


@pytest.fixture(scope="module")
def cfg():
    return ConfigSpace().default_config()


class TestResource:
    def test_formula(self, cfg):
        c = dict(cfg)
        c.update({
            "spark.executor.instances": 10, "spark.executor.cores": 4,
            "spark.executor.memory": 8, "spark.executor.memoryOverhead": 1024,
            "spark.driver.cores": 2, "spark.driver.memory": 4,
            "spark.memory.offHeap.enabled": False,
        })
        expect = (10 * 4 + 2) + 0.25 * (10 * (8 + 1.0) + 4)
        assert resource(c) == pytest.approx(expect)

    def test_offheap_charged_when_enabled(self, cfg):
        on = dict(cfg, **{"spark.memory.offHeap.enabled": True, "spark.memory.offHeap.size": 4})
        off = dict(cfg, **{"spark.memory.offHeap.enabled": False})
        assert resource(on) > resource(off)

    def test_monotone_in_instances(self, cfg):
        small = dict(cfg, **{"spark.executor.instances": 5})
        big = dict(cfg, **{"spark.executor.instances": 50})
        assert resource(big) > resource(small)

    def test_columns_equal_scalar_exactly(self):
        # the generator's bulk filter and AGD's probes: one call over value columns
        for space in (ConfigSpace(), hibench_space()):
            U = np.random.default_rng(0).random((400, space.dim))
            U[:, space.index_of("spark.memory.offHeap.enabled")] = np.arange(400) % 2
            V, _ = space.snap(U)
            bulk = resource(dict(zip(space.names, V.T)))
            assert bulk.tolist() == [resource(space.from_unit(u)) for u in U]


class TestObjective:
    def test_beta_one_is_runtime(self, cfg):
        assert objective(123.0, cfg, 1.0) == pytest.approx(123.0)

    def test_beta_zero_is_resource(self, cfg):
        assert objective(123.0, cfg, 0.0) == pytest.approx(resource(cfg))

    def test_beta_half_is_sqrt_cost(self, cfg):
        f = objective(100.0, cfg, 0.5)
        assert f**2 == pytest.approx(execution_cost(100.0, cfg))

    def test_invalid_beta(self, cfg):
        with pytest.raises(ValueError):
            objective(1.0, cfg, 1.5)

    def test_execution_cost_product(self, cfg):
        assert execution_cost(10.0, cfg) == pytest.approx(10.0 * resource(cfg))

    def test_beta_tendency(self, cfg):
        # a faster-but-bigger config: wins at beta→1, loses at beta→0
        slow_small = dict(cfg, **{"spark.executor.instances": 2})
        fast_big = dict(cfg, **{"spark.executor.instances": 100})
        assert objective(1000.0, slow_small, 1.0) > objective(100.0, fast_big, 1.0)
        assert objective(1000.0, slow_small, 0.0) < objective(100.0, fast_big, 0.0)


class TestConstraints:
    """``TuningProblem.feasible``: a run that did not fail, under both
    bounds of Eq. 1 (inclusive); ``None`` leaves a bound open."""

    def test_runtime_constraint(self, cfg):
        prob = TuningProblem(t_max=100.0)
        ok = ExecResult(runtime_s=90, mem_gbh=1, cpu_coreh=1)
        bad = ExecResult(runtime_s=110, mem_gbh=1, cpu_coreh=1)
        assert prob.feasible(ok, cfg) and not prob.feasible(bad, cfg)

    def test_runtime_constraint_failed_run(self, cfg):
        # a failed run is infeasible even inside both bounds
        prob = TuningProblem(t_max=100.0, r_max=resource(cfg) + 1)
        oom = ExecResult(runtime_s=10, mem_gbh=1, cpu_coreh=1, feasible=False)
        assert not prob.feasible(oom, cfg)
        assert not TuningProblem().feasible(oom, cfg)

    def test_resource_constraint(self, cfg):
        r = resource(cfg)
        res = ExecResult(runtime_s=1, mem_gbh=1, cpu_coreh=1)
        assert TuningProblem(r_max=r + 1).feasible(res, cfg)
        assert not TuningProblem(r_max=r - 1).feasible(res, cfg)

    def test_bounds_are_inclusive(self, cfg):
        res = ExecResult(runtime_s=50.0, mem_gbh=1, cpu_coreh=1)
        assert TuningProblem(t_max=50.0).feasible(res, cfg)
        assert TuningProblem(r_max=resource(cfg)).feasible(res, cfg)
        assert TuningProblem(t_max=50.0, r_max=resource(cfg)).feasible(res, cfg)

    def test_none_is_unbounded(self, cfg):
        huge = ExecResult(runtime_s=1e12, mem_gbh=1, cpu_coreh=1)
        big = dict(cfg, **{"spark.executor.instances": 10_000})
        assert TuningProblem().feasible(huge, big)
        assert TuningProblem(t_max=None, r_max=resource(big)).feasible(huge, big)
        assert TuningProblem(t_max=1e12, r_max=None).feasible(huge, big)

    @settings(max_examples=200, deadline=None)
    @given(
        runtime=st.floats(0.0, 200.0),
        ok=st.booleans(),
        instances=st.integers(1, 50),
        t_max=st.none() | st.floats(0.0, 200.0),
        r_max=st.none() | st.floats(0.0, 400.0),
    )
    def test_feasible_is_eq1(self, cfg, runtime, ok, instances, t_max, r_max):
        config = dict(cfg, **{"spark.executor.instances": instances})
        res = ExecResult(runtime_s=runtime, mem_gbh=1, cpu_coreh=1, feasible=ok)
        expected = (ok and (t_max is None or runtime <= t_max)
                    and (r_max is None or resource(config) <= r_max))
        assert TuningProblem(0.5, t_max, r_max).feasible(res, config) == expected

    def test_problem_feasibility(self, cfg):
        prob = TuningProblem(beta=0.5, t_max=50.0)
        ok = ExecResult(runtime_s=40, mem_gbh=1, cpu_coreh=1)
        bad = ExecResult(runtime_s=60, mem_gbh=1, cpu_coreh=1)
        assert prob.feasible(ok, cfg) and not prob.feasible(bad, cfg)

    def test_problem_value(self, cfg):
        prob = TuningProblem(beta=1.0)
        res = ExecResult(runtime_s=42.0, mem_gbh=1, cpu_coreh=1)
        assert prob.value(res, cfg) == pytest.approx(42.0)
