"""Unit tests for the run history and the BO loop (Algorithm 1)."""
import numpy as np
import pytest

from repro.core import gp as gp_module
from repro.core.bo import RunHistory, datasize_feature, fit_surrogates, model_rows
from repro.core.config_space import ConfigSpace
from repro.core.objective import ExecResult, TuningProblem


@pytest.fixture()
def history():
    return RunHistory(ConfigSpace(), TuningProblem(beta=1.0))


def _result(rt, feasible=True, ds=1000.0):
    return ExecResult(runtime_s=rt, mem_gbh=1.0, cpu_coreh=1.0, feasible=feasible, datasize_mb=ds)


class TestRunHistory:
    def test_add_and_len(self, history):
        cfg = history.space.default_config()
        history.add(cfg, _result(10))
        assert len(history) == 1

    def test_best_prefers_feasible(self, history):
        cfg = history.space.default_config()
        history.add(cfg, _result(5, feasible=False))
        history.add(cfg, _result(50))
        assert history.best().objective == pytest.approx(50)

    def test_best_falls_back_to_infeasible(self, history):
        cfg = history.space.default_config()
        history.add(cfg, _result(5, feasible=False))
        assert history.best().objective == pytest.approx(5)

    def test_best_none_when_empty(self, history):
        assert history.best() is None

    def test_objective_uses_problem_beta(self):
        h = RunHistory(ConfigSpace(), TuningProblem(beta=1.0))
        cfg = h.space.default_config()
        obs = h.add(cfg, _result(42))
        assert obs.objective == pytest.approx(42.0)

    def test_feasibility_uses_constraints(self):
        prob = TuningProblem(beta=1.0, t_max=20.0)
        h = RunHistory(ConfigSpace(), prob)
        cfg = h.space.default_config()
        assert h.add(cfg, _result(10)).feasible
        assert not h.add(cfg, _result(30)).feasible

    def test_X_unit_shapes(self, history):
        cfg = history.space.default_config()
        history.add(cfg, _result(10))
        history.add(cfg, _result(20))
        assert history.X_unit().shape == (2, 30)
        assert history.X_unit(with_datasize=True).shape == (2, 31)

    def test_X_unit_is_the_encoded_configs(self, history):
        rng = np.random.default_rng(0)
        configs = history.space.sample_random(5, rng)
        sizes = [10.0, 3e3, 1e4, 7.5, 2e5]
        for c, ds in zip(configs, sizes):
            history.add(c, _result(10, ds=ds))
        X = np.array([history.space.to_unit(c) for c in configs])
        ds = np.array([[datasize_feature(s)] for s in sizes])
        assert np.array_equal(history.X_unit(), X)
        assert np.array_equal(history.X_unit(with_datasize=True), np.concatenate([X, ds], axis=1))
        assert np.array_equal([o.unit for o in history.observations], X)

    def test_X_unit_is_read_only(self, history):
        obs = history.add(history.space.default_config(), _result(10))
        with pytest.raises(ValueError):
            history.X_unit()[0, 0] = 0.5
        with pytest.raises(ValueError):
            obs.unit[0] = 0.5
        # a row of its own: a view would keep each earlier matrix alive
        assert not np.shares_memory(obs.unit, history.X_unit())

    def test_best_feasible_none_without_feasible_run(self, history):
        cfg = history.space.default_config()
        history.add(cfg, _result(5, feasible=False))
        assert history.best_feasible() is None
        history.add(cfg, _result(50))
        assert history.best_feasible().objective == pytest.approx(50)

    def test_penalized_objectives(self, history):
        cfg = history.space.default_config()
        history.add(cfg, _result(10))
        history.add(cfg, _result(5, feasible=False))
        y = history.penalized_objectives()
        assert y[1] >= 10 * 1.5  # pushed above feasible max

    def test_runtimes(self, history):
        cfg = history.space.default_config()
        history.add(cfg, _result(10))
        history.add(cfg, _result(30))
        assert np.allclose(history.runtimes(), [10, 30])


class TestDatasizeFeature:
    def test_monotone_and_bounded(self):
        assert datasize_feature(10.0) < datasize_feature(1e5)
        assert 0.0 <= datasize_feature(1.0) <= 1.0
        assert datasize_feature(1e6) == pytest.approx(1.0)



def _runs(history, n, seed=0):
    rng = np.random.default_rng(seed)
    for cfg in history.space.sample_random(n, rng):
        history.add(cfg, _result(float(rng.uniform(50, 150)), ds=float(rng.uniform(500, 2000))))
    return history


class TestFitSurrogates:
    def test_objective_and_runtime_gps_share_one_cholesky(self, history, monkeypatch):
        _runs(history, 8)
        shapes, cholesky = [], np.linalg.cholesky

        def counted(K):
            shapes.append(K.shape)
            return cholesky(K)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        s = fit_surrogates(history, with_datasize=True, runtime=True)
        n_grid = 2 * len(gp_module.LS_GRID) * len(gp_module.NOISE_GRID)
        assert shapes == [(n_grid, 8, 8)]
        assert s.runtime.basis is s.objective.basis

    @pytest.mark.parametrize("with_datasize", [False, True])
    def test_model_rows_lead_with_the_unit_rows(self, history, with_datasize):
        s = fit_surrogates(_runs(history, 4), with_datasize=with_datasize)
        U = np.random.default_rng(0).random((5, history.space.dim))
        rows = model_rows(U, s.datasize)
        assert rows.shape == (5, history.space.dim + with_datasize)
        assert np.array_equal(rows[:, :history.space.dim], U)
