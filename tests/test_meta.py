"""Unit tests for meta-learning (§5): similarity, warm-start, ensemble."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bo import RunHistory, fit_surrogates, model_rows
from repro.core.config_space import ConfigSpace
from repro.core.gp import GaussianProcess
from repro.core.meta import (
    MetaEnsembleSurrogate, MetaLearner, SourceTask, kendall_tau, rank_distance,
    surrogate_distance,
)
from repro.core.objective import ExecResult, TuningProblem
from repro.ml.gbm import GradientBoostedRegressor
from tests.test_gp import _shared_case


@pytest.fixture(scope="module")
def space():
    return ConfigSpace()


def _task(space, name, fn, n=20, seed=0, meta_shift=0.0):
    """Synthetic source task whose objective is fn(unit vector)."""
    rng = np.random.default_rng(seed)
    h = RunHistory(space, TuningProblem(beta=1.0))
    for _ in range(n):
        cfg = space.sample_random(1, rng)[0]
        rt = float(fn(space.to_unit(cfg)))
        h.add(cfg, ExecResult(runtime_s=rt, mem_gbh=1, cpu_coreh=1, datasize_mb=1000))
    meta = np.full(75, meta_shift) + rng.normal(0, 0.01, 75)
    return SourceTask(name, meta, h)


class TestKendallTau:
    def test_perfect_agreement(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        assert kendall_tau(a, a * 10) == pytest.approx(1.0)

    def test_perfect_disagreement(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        assert kendall_tau(a, -a) == pytest.approx(-1.0)

    def test_known_value(self):
        # one discordant pair of six → tau = (5-1)/6
        a = np.array([1.0, 2.0, 3.0, 4.0])
        b = np.array([1.0, 2.0, 4.0, 3.0])
        assert kendall_tau(a, b) == pytest.approx(4.0 / 6.0)

    def test_bad_input(self):
        with pytest.raises(ValueError):
            kendall_tau(np.array([1.0]), np.array([1.0]))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 30).flatmap(lambda n: st.tuples(
        *(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n) for _ in range(2))
    )))
    def test_symmetric(self, ab):
        a, b = np.array(ab[0]), np.array(ab[1])
        assert kendall_tau(a, b) == kendall_tau(b, a)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=30, unique=True))
    def test_self_agreement(self, values):
        # distinct entries only: ties count as neither concordant nor discordant
        a = np.array(values)
        assert kendall_tau(a, a) == 1.0 == -kendall_tau(a, -a)

    def test_rank_distance_range(self):
        assert rank_distance(1.0) == 0.0
        assert rank_distance(-1.0) == 1.0
        assert rank_distance(0.0) == 0.5


class TestSurrogateDistance:
    def test_self_distance_small(self, space):
        t = _task(space, "a", lambda u: 100 * u[0])
        assert surrogate_distance(t, t, space) < 0.05

    def test_similar_closer_than_opposite(self, space):
        t1 = _task(space, "a", lambda u: 100 * u[0], seed=1)
        t2 = _task(space, "b", lambda u: 110 * u[0] + 3, seed=2)
        t3 = _task(space, "c", lambda u: -100 * u[0], seed=3)
        assert surrogate_distance(t1, t2, space) < surrogate_distance(t1, t3, space)

    def test_range(self, space):
        t1 = _task(space, "a", lambda u: 100 * u[0], seed=1)
        t3 = _task(space, "c", lambda u: -100 * u[0], seed=3)
        d = surrogate_distance(t1, t3, space)
        assert 0.0 <= d <= 1.0


class TestMetaLearner:
    @pytest.fixture(scope="class")
    def learner(self, space):
        tasks = [
            _task(space, "inst-a", lambda u: 100 * u[0], seed=1, meta_shift=0.0),
            _task(space, "inst-b", lambda u: 120 * u[0], seed=2, meta_shift=0.05),
            _task(space, "anti-a", lambda u: -100 * u[0], seed=3, meta_shift=1.0),
            _task(space, "anti-b", lambda u: -90 * u[0], seed=4, meta_shift=1.05),
        ]
        return MetaLearner(space, seed=0).fit(tasks), tasks

    def test_predict_distance_in_range(self, learner):
        ml, tasks = learner
        d = ml.predict_distance(tasks[0].meta, tasks[2].meta)
        assert 0.0 <= d <= 1.0

    def test_similar_tasks_ranked_first(self, learner):
        ml, tasks = learner
        ranked = ml.rank_sources(tasks[0].meta + 0.01)
        assert ranked[0][0].name.startswith("inst")

    def test_warm_start_configs(self, learner):
        ml, tasks = learner
        configs = [t.history.best().config for t, _ in ml.nearest(tasks[0].meta)]
        assert len(configs) == 3
        for c in configs:
            assert set(c) == set(ml.space.names)

    def test_targets_are_the_pair_distances(self, learner, monkeypatch):
        """The similarity regressor trains on every ordered pair with its
        surrogate_distance as the target, to the bit."""
        ml, tasks = learner
        seen = []
        monkeypatch.setattr(GradientBoostedRegressor, "fit",
                            lambda model, X, y: seen.append((X, y)) or model)
        MetaLearner(ml.space, seed=ml.seed).fit(tasks)
        (X, y), = seen
        pairs = [(i, j) for i in range(len(tasks)) for j in range(i + 1, len(tasks))]
        ref = [surrogate_distance(tasks[i], tasks[j], ml.space, seed=ml.seed)
               for i, j in pairs for _ in range(2)]
        assert y.tolist() == ref and len(X) == len(ref)

    def test_needs_two_tasks(self, space):
        with pytest.raises(ValueError):
            MetaLearner(space).fit([_task(space, "solo", lambda u: u[0])])

    def test_unfitted_raises(self, space):
        with pytest.raises(RuntimeError):
            MetaLearner(space).predict_distance(np.zeros(75), np.zeros(75))


class TestEnsembleSurrogate:
    def test_eq12_combination(self, space):
        tasks = [
            _task(space, "a", lambda u: 100 * u[0], seed=1),
            _task(space, "b", lambda u: 105 * u[0], seed=2),
            _task(space, "c", lambda u: -100 * u[0], seed=3),
        ]
        ml = MetaLearner(space, seed=0).fit(tasks)
        sources = ml.nearest(tasks[0].meta)
        rng = np.random.default_rng(5)
        X = rng.random((10, space.dim))
        y = 100 * X[:, 0]
        ens = MetaEnsembleSurrogate(sources, GaussianProcess(space.cat_mask).fit(X, y), X, y)
        mu, sd = ens.predict(rng.random((6, space.dim)))
        assert mu.shape == (6,) and sd.shape == (6,)
        assert np.all(sd >= 0)

    def test_ensemble_ranks_like_target(self, space):
        tasks = [
            _task(space, "a", lambda u: 100 * u[0], seed=1),
            _task(space, "b", lambda u: 105 * u[0], seed=2),
        ]
        ml = MetaLearner(space, seed=0).fit(tasks)
        sources = ml.nearest(tasks[0].meta)
        # scarce current-task data: 3 points only
        rng = np.random.default_rng(6)
        X = rng.random((3, space.dim))
        y = 100 * X[:, 0]
        ens = MetaEnsembleSurrogate(sources, GaussianProcess(space.cat_mask).fit(X, y), X, y)
        lo = np.zeros(space.dim)[None, :]
        hi = np.ones(space.dim)[None, :]
        mu_lo, _ = ens.predict(lo)
        mu_hi, _ = ens.predict(hi)
        assert mu_hi[0] > mu_lo[0]  # source knowledge orients the surrogate

    def test_current_weight_set_once_per_fit(self, space, monkeypatch):
        tasks = [
            _task(space, "a", lambda u: 100 * u[0], seed=1),
            _task(space, "b", lambda u: 105 * u[0], seed=2),
        ]
        sources = MetaLearner(space, seed=0).fit(tasks).nearest(tasks[0].meta)
        rng = np.random.default_rng(7)
        X = rng.random((10, space.dim))
        y = 100 * X[:, 0] + rng.normal(0, 5, 10)
        ens = MetaEnsembleSurrogate(sources, GaussianProcess(space.cat_mask).fit(X, y), X, y)
        mu, _ = ens.current.predict(X)
        assert ens.current_weight == float(np.clip((1.0 + kendall_tau(mu, y)) / 2.0, 0.1, 1.0))
        rows, predict = [], ens.current.predict
        monkeypatch.setattr(ens.current, "predict", lambda Q: rows.append(len(Q)) or predict(Q))
        ens.predict(rng.random((6, space.dim)))
        assert rows == [6]  # the query only: no re-prediction of X


@pytest.mark.parametrize("seed, case", [
    (1, "same grid point"), (30, "same lengthscale"), (0, "different lengthscales")])
def test_meta_surrogates_on_a_shared_basis_equal_lone_fits(space, seed, case):
    """The meta-ensemble's current-task GP and the log-runtime GP share
    one basis; their fits and posteriors equal those of lone GPs."""
    tasks = [
        _task(space, "a", lambda u: 100 * u[0], seed=1),
        _task(space, "b", lambda u: 105 * u[1], seed=2),
    ]
    sources = MetaLearner(space, seed=0).fit(tasks).nearest(tasks[0].meta)
    rng = np.random.default_rng(seed)
    h = RunHistory(space, TuningProblem(beta=0.5))
    for cfg in space.sample_random(12, rng):
        runtime = 60.0 + 80.0 * space.to_unit(cfg)[0] + rng.uniform(0.0, 20.0)
        h.add(cfg, ExecResult(runtime_s=float(runtime), mem_gbh=1, cpu_coreh=1,
                              datasize_mb=float(rng.uniform(500, 2000))))
    s = fit_surrogates(h, with_datasize=True, runtime=True, sources=sources)
    gp_f, gp_t = s.objective.current, s.runtime
    assert gp_t.basis is gp_f.basis
    assert _shared_case(gp_f, gp_t) == case
    X, y = h.X_unit(with_datasize=True), h.penalized_objectives()
    lone = MetaEnsembleSurrogate(
        sources, GaussianProcess(space.cat_mask).fit(X, y), X, y)
    lone_t = GaussianProcess(space.cat_mask).fit(X, np.log(h.runtimes()))
    assert s.objective.current_weight == lone.current_weight
    for gp, ref in ((gp_f, lone.current), (gp_t, lone_t)):
        assert (gp.lengthscale, gp.noise) == (ref.lengthscale, ref.noise)
        assert np.array_equal(gp._L, ref._L) and np.array_equal(gp._alpha, ref._alpha)
    Q = model_rows(space.snap(space.sample_unit(50, rng))[1], s.datasize)
    Q.flags.writeable = False  # a query the two GPs share, as in propose
    for model, ref in ((gp_t, lone_t), (s.objective, lone), (gp_t, lone_t)):
        for got, want in zip(model.predict(Q), ref.predict(Q)):
            assert np.array_equal(got, want)
