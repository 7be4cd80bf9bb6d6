"""Unit tests for the six compared tuning methods (§6.1)."""
import numpy as np
import pytest

from repro.baselines import (
    CherryPickTuner, DACTuner, LOCATTuner, RandomSearchTuner, RFHOCTuner, TunefulTuner,
)
from repro.baselines.base import Capabilities
from repro.baselines.ga import ga_minimize
from repro.baselines.locat import spearman
from repro.core.config_space import ConfigSpace
from repro.core.controller import OnlineTuner
from repro.core.objective import ExecResult, TuningProblem
from repro.experiments.harness import SimEvaluator, run_tuning
from repro.experiments.hibench import hibench_env
from repro.simcluster import get_profile

ALL_TUNERS = (
    RandomSearchTuner, RFHOCTuner, DACTuner, CherryPickTuner,
    TunefulTuner, LOCATTuner, OnlineTuner,
)


@pytest.fixture(scope="module")
def space():
    return ConfigSpace()


def _drive(tuner_cls, space, n=14, seed=0, **kw):
    """Run a tuner against a synthetic objective for n iterations."""
    prob = TuningProblem(beta=1.0, t_max=500.0)
    if tuner_cls is OnlineTuner:
        kw.setdefault("use_meta", False)
    t = tuner_cls(space, prob, seed=seed, **kw)
    rng = np.random.default_rng(seed)
    i = space.index_of("spark.executor.instances")
    for it in range(n):
        cfg = t.suggest()
        assert set(cfg) == set(space.names), tuner_cls.name
        rt = 400.0 * (1.0 - space.to_unit(cfg)[i]) + 20.0 + rng.normal(0, 2)
        t.observe(cfg, ExecResult(runtime_s=max(rt, 1.0), mem_gbh=1, cpu_coreh=1,
                                  datasize_mb=1000.0))
    return t


class TestProtocol:
    @pytest.mark.parametrize("cls", ALL_TUNERS, ids=lambda c: c.name)
    def test_full_budget_runs(self, cls, space):
        t = _drive(cls, space)
        assert len(t.history) == 14

    @pytest.mark.parametrize("cls", ALL_TUNERS, ids=lambda c: c.name)
    def test_deterministic_under_seed(self, cls, space):
        a = _drive(cls, space, n=6, seed=3).history.observations
        b = _drive(cls, space, n=6, seed=3).history.observations
        assert [o.config for o in a] == [o.config for o in b]

    @pytest.mark.parametrize(
        "cls", (CherryPickTuner, TunefulTuner, LOCATTuner, OnlineTuner),
        ids=lambda c: c.name,
    )
    def test_bo_methods_exploit_signal(self, cls, space):
        # runtime falls with instances; model-based tuners should end up
        # suggesting high instance counts more than uniform random would
        t = _drive(cls, space, n=20)
        best = t.history.best()
        i = space.index_of("spark.executor.instances")
        assert space.to_unit(best.config)[i] > 0.5


class TestInfeasibleHistory:
    def test_tuners_keep_to_the_grid_with_no_feasible_run(self, monkeypatch):
        """Under a runtime bound no run meets, the BO tuners still
        suggest configs on the grid, Ours does not stop, and each of its
        EIC picks falls back to the most plausibly safe candidate."""
        space, sim = hibench_env()
        profile = get_profile("terasort")
        for cls in (OnlineTuner, CherryPickTuner, TunefulTuner, LOCATTuner):
            tuner = cls(space, TuningProblem(0.5, t_max=1e-3), seed=0)
            eic_picks = []
            if cls is OnlineTuner:
                gen = tuner.generator
                pick = gen._eic_pick

                def recorded(history, surrogates):
                    out = pick(history, surrogates)
                    eic_picks.append((len(history) + 1, gen.last_ei))
                    return out

                monkeypatch.setattr(gen, "_eic_pick", recorded)
            h = run_tuning(tuner, SimEvaluator(profile, sim, seed=0), 14)
            assert h.best_feasible() is None, cls.name
            assert all(space.clip(o.config) == o.config for o in h.observations), cls.name
            if cls is OnlineTuner:
                assert not tuner.stopped
                assert eic_picks == [(it, float("inf")) for it in (*range(4, 10), *range(11, 15))]


class TestCapabilities:
    def test_all_declare_capabilities(self):
        for cls in ALL_TUNERS:
            assert isinstance(cls.capabilities, Capabilities)

    def test_offline_methods_all_no(self):
        assert RFHOCTuner.capabilities.row() == ("no",) * 6
        assert DACTuner.capabilities.row() == ("no",) * 6

    def test_online_methods_noer(self):
        for cls in (CherryPickTuner, TunefulTuner, LOCATTuner, OnlineTuner):
            assert cls.capabilities.noer == "yes"

    def test_only_ours_safe(self):
        for cls in ALL_TUNERS:
            expect = "yes" if cls is OnlineTuner else "no"
            assert cls.capabilities.safety == expect


class TestGA:
    def test_minimizes_quadratic(self, space):
        target = np.full(space.dim, 0.25)

        def fitness(U):
            return ((U - target) ** 2).sum(axis=1)

        best = ga_minimize(space, fitness, rng=np.random.default_rng(0))
        u = space.to_unit(best)
        # boolean dims snap to {0,1} and alone contribute 8×0.0625=0.5;
        # uniform random scores ≈4.4 in expectation, so <1.2 shows search
        assert fitness(u[None, :])[0] < 1.2

    def test_deterministic(self, space):
        def fitness(U):
            return U.sum(axis=1)

        a = ga_minimize(space, fitness, rng=np.random.default_rng(1))
        b = ga_minimize(space, fitness, rng=np.random.default_rng(1))
        assert a == b


class TestSpearman:
    def test_monotone_is_one(self):
        x = np.array([1.0, 2.0, 5.0, 9.0])
        assert spearman(x, x**3) == pytest.approx(1.0)

    def test_reversed_is_minus_one(self):
        x = np.array([1.0, 2.0, 5.0, 9.0])
        assert spearman(x, -x) == pytest.approx(-1.0)

    def test_constant_is_zero(self):
        assert spearman(np.ones(5), np.arange(5.0)) == 0.0

    def test_ties_handled(self):
        a = np.array([1.0, 1.0, 2.0, 3.0])
        b = np.array([1.0, 1.5, 2.0, 3.0])
        assert -1.0 <= spearman(a, b) <= 1.0


class TestWarmups:
    def test_rfhoc_explores_then_models(self, space):
        t = _drive(RFHOCTuner, space, n=RFHOCTuner.n_warmup + 2)
        assert len(t.history) == RFHOCTuner.n_warmup + 2

    def test_tuneful_fixes_subspace_after_sa(self, space):
        t = _drive(TunefulTuner, space, n=TunefulTuner.sa_rounds + 3)
        assert t._dims is not None and len(t._dims) == TunefulTuner.top_k

    def test_locat_fixes_subspace_after_sa(self, space):
        t = _drive(LOCATTuner, space, n=LOCATTuner.sa_rounds + 3)
        assert t._dims is not None and len(t._dims) == LOCATTuner.top_k
