"""Unit tests for the OnlineTune controller (§3.1/§3.3)."""
import numpy as np
import pytest

from repro.baselines.base import YES
from repro.core.config_space import ConfigSpace
from repro.core.controller import OnlineTuner
from repro.core.gp import GaussianProcess
from repro.core.objective import ExecResult, TuningProblem, resource
from repro.experiments.ablations import build_meta_learner
from repro.experiments.harness import tune
from repro.experiments.hibench import hibench_env
from repro.simcluster import get_profile
from repro.simcluster.eventlog import meta_features


@pytest.fixture(scope="module")
def space():
    return ConfigSpace()


def _result(rt, ds=1000.0, feasible=True):
    return ExecResult(runtime_s=rt, mem_gbh=1, cpu_coreh=1, feasible=feasible, datasize_mb=ds)


class TestInit:
    def test_capabilities_all_yes(self):
        assert OnlineTuner.capabilities.row() == (YES,) * 6

    def test_reference_config_evaluated_first(self, space):
        ref = space.clip(space.default_config() | {"spark.executor.instances": 42})
        t = OnlineTuner(space, TuningProblem(beta=0.5), seed=0, use_meta=False,
                        reference_config=ref)
        assert t.suggest() == ref

    def test_sobol_init_without_reference(self, space):
        t = OnlineTuner(space, TuningProblem(beta=0.5), seed=0, use_meta=False)
        first = [t._init_configs[i] for i in range(t.n_init)]
        assert len(first) == 3
        assert len({tuple(sorted(c.items())) for c in first}) == 3

    def test_init_repair_respects_resource_constraint(self, space):
        rmax = resource(space.clip(space.default_config() | {"spark.executor.instances": 30}))
        prob = TuningProblem(beta=0.5, r_max=rmax)
        t = OnlineTuner(space, prob, seed=0, use_meta=False)
        for c in t._init_configs:
            assert resource(c) <= rmax

    def test_no_repair_when_unsafe(self, space):
        rmax = resource(space.clip(space.default_config() | {"spark.executor.instances": 2}))
        prob = TuningProblem(beta=0.5, r_max=rmax)
        t = OnlineTuner(space, prob, seed=0, use_meta=False, use_safe=False)
        # vanilla-BO ablation keeps raw Sobol inits (may violate)
        assert any(resource(c) > rmax for c in t._init_configs)

    def test_two_meta_sources_fill_the_design_with_sobol(self):
        space, sim = hibench_env()
        learner = build_meta_learner(space, sim, ("terasort", "kmeans"), budget=6)
        profile = get_profile("lr")
        target_meta = meta_features(sim.run(profile, space.default_config(), seed=0))
        sources = learner.nearest(target_meta)
        assert len(sources) == 2 < OnlineTuner.n_init
        h = tune(space, sim, profile, seed=0, budget=OnlineTuner.n_init + 1, use_meta=True,
                 meta_learner=learner, target_meta=target_meta, reference_config=None)
        assert len(h) == OnlineTuner.n_init + 1
        starts = [t.history.best().config for t, _ in sources]
        assert [o.config for o in h.observations[:2]] == starts
        assert h.observations[2].config not in starts


class TestObserve:
    def test_subspace_counters_fed(self, space):
        t = OnlineTuner(space, TuningProblem(beta=0.5), seed=0, use_meta=False)
        cfg = space.default_config()
        t.observe(cfg, _result(100))
        t.observe(cfg, _result(50))   # improvement → success
        t.observe(cfg, _result(500))  # worse → failure
        assert len(t.history) == 3

    def test_iterates_and_returns_valid(self, space):
        t = OnlineTuner(space, TuningProblem(beta=0.5), seed=0, use_meta=False)
        rng = np.random.default_rng(0)
        for it in range(7):
            cfg = t.suggest()
            assert set(cfg) == set(space.names)
            t.observe(cfg, _result(float(rng.uniform(50, 150))))
        assert len(t.history) == 7


class TestStopping:
    def test_stopped_tuner_serves_incumbent(self, space):
        t = OnlineTuner(space, TuningProblem(beta=1.0), seed=0, use_meta=False)
        cfg = space.default_config()
        t.observe(cfg, _result(100))
        t.stopped = True
        assert t.suggest() == cfg

    def test_restart_on_degradation(self, space, monkeypatch):
        monkeypatch.setattr(OnlineTuner, "degradation_patience", 2)
        t = OnlineTuner(space, TuningProblem(beta=1.0), seed=0, use_meta=False)
        cfg = space.default_config()
        for i in range(4):
            t.observe(cfg, _result(100))
        t.stopped = True
        # seed expectations then feed degraded outcomes
        t._expected = 10.0
        t.observe(cfg, _result(100))
        assert t._degradations == 1 and t._expected is None  # consumed
        t.observe(cfg, _result(100))  # no expectation: not a degradation
        assert t._degradations == 0
        t._expected = 10.0
        t.observe(cfg, _result(100))
        t._expected = 10.0
        t.observe(cfg, _result(100))
        assert t._degradations == 0  # reset by the restart path
        assert not t.stopped

    def _past_init(self, space, **kw):
        t = OnlineTuner(space, TuningProblem(beta=1.0), seed=0, use_meta=False, **kw)
        cfg = space.default_config()
        for _ in range(t.n_init):
            t.observe(cfg, _result(100))
        return t, cfg

    def test_stops_when_ei_below_threshold(self, space):
        # threshold: ei_stop_rel percent of the incumbent, 0.1 here
        t, cfg = self._past_init(space, ei_stop_rel=0.10)
        t.generator.last_ei = 0.09
        t.observe(cfg, _result(100))
        assert t.stopped

    def test_keeps_tuning_when_ei_above_threshold(self, space):
        t, cfg = self._past_init(space, ei_stop_rel=0.10)
        t.generator.last_ei = 0.11
        t.observe(cfg, _result(100))
        assert not t.stopped

    def test_stopped_tuner_restarts_on_degraded_runs(self, space):
        t, _ = self._past_init(space)
        assert t.degradation_patience == 3
        t.stopped = True
        for _ in range(3):
            assert t.stopped
            cfg = t.suggest()  # the incumbent, expected at its own objective
            t.observe(cfg, _result(200))
        assert not t.stopped


class TestSurrogateFits:
    def _ready(self, space):
        t = OnlineTuner(space, TuningProblem(beta=0.5), seed=0, use_meta=False)
        rng = np.random.default_rng(0)
        for _ in range(t.n_init):
            t.observe(t.suggest(), _result(float(rng.uniform(50, 150))))
        return t

    def test_one_suggest_fits_two_gps(self, space, monkeypatch):
        t = self._ready(space)
        fits = []
        fit = GaussianProcess.fit

        def counted(gp, X, y):
            fits.append(len(X))
            return fit(gp, X, y)

        monkeypatch.setattr(GaussianProcess, "fit", counted)
        t.suggest()
        assert fits == [t.n_init, t.n_init]  # objective, log-runtime

    def test_failing_fit_propagates(self, space, monkeypatch):
        t = self._ready(space)

        def broken(gp, X, y):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(GaussianProcess, "fit", broken)
        with pytest.raises(np.linalg.LinAlgError):
            t.suggest()
