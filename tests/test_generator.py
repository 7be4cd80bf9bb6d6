"""Unit tests for the safe & efficient config generator (Algorithm 2)."""
import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from repro.core.agd import N_AGD
from repro.core.bo import RunHistory, fit_surrogates, model_rows
from repro.core.config_space import ConfigSpace, SubspaceRows
from repro.core.generator import ConfigGenerator
from repro.core.objective import ExecResult, TuningProblem, resource


@pytest.fixture(scope="module")
def space():
    return ConfigSpace()


def _history(space, problem, n=8, seed=0, runtime_fn=None):
    rng = np.random.default_rng(seed)
    h = RunHistory(space, problem)
    for _ in range(n):
        cfg = space.sample_random(1, rng)[0]
        rt = runtime_fn(cfg) if runtime_fn else float(rng.uniform(50, 150))
        h.add(cfg, ExecResult(runtime_s=rt, mem_gbh=1, cpu_coreh=1, datasize_mb=1000))
    return h


def _suggest(gen, history):
    """The generator's pick, as a config."""
    return gen.space.from_unit(gen.suggest(history))


def _full(cands):
    """Candidate blocks as full rows: as drawn, values and snapped units."""
    V = np.empty((len(cands), len(cands.dims) + len(cands.rest)))
    V[:, cands.rest], V[:, cands.dims] = cands.base_values, cands.values
    return np.array([cands.raw_row(i) for i in range(len(cands))]), V, cands.rows()


class TestSuggest:
    def test_returns_valid_config(self, space):
        prob = TuningProblem(beta=0.5)
        gen = ConfigGenerator(space, prob, seed=0)
        h = _history(space, prob)
        u = gen.suggest(h)
        assert u.shape == (space.dim,)
        assert np.all((u >= 0) & (u <= 1))
        assert set(space.from_unit(u)) == set(space.names)

    @pytest.mark.parametrize("n", [8, 2 * N_AGD - 1], ids=["eic", "agd"])
    def test_expected_is_objective_mean_at_snapped_pick(self, space, n):
        prob = TuningProblem(beta=0.5)
        gen = ConfigGenerator(space, prob, seed=0)
        h = _history(space, prob, n=n)
        u = gen.suggest(h)
        s = fit_surrogates(h, with_datasize=True, runtime=True)
        mu, _ = s.objective.predict(
            model_rows(space.to_unit(space.from_unit(u))[None, :], s.datasize))
        assert gen.expected == float(mu[0])

    def test_agd_cadence(self, space):
        # at |D|+1 ≡ 0 (mod N_AGD) the suggestion comes from AGD: it
        # perturbs only numeric sub-space dims of the incumbent
        prob = TuningProblem(beta=0.5)
        gen = ConfigGenerator(space, prob, seed=0)
        h = _history(space, prob, n=2 * N_AGD - 1)  # past the §4.3 sufficiency gate
        best = h.best().config
        cfg = _suggest(gen, h)
        for p in space.params:
            if p.kind == "cat":
                assert cfg[p.name] == best[p.name]

    def test_agd_disabled(self, space):
        prob = TuningProblem(beta=0.5)
        gen = ConfigGenerator(space, prob, seed=0, use_agd=False)
        h = _history(space, prob, n=2 * N_AGD - 1)
        cfg = _suggest(gen, h)  # must not crash and must be valid
        assert set(cfg) == set(space.names)

    def test_resource_constraint_filtering(self, space):
        small = resource(space.clip(space.default_config() | {"spark.executor.instances": 50}))
        prob = TuningProblem(beta=0.5, r_max=small)
        gen = ConfigGenerator(space, prob, seed=0, use_agd=False)
        h = _history(space, prob)
        for _ in range(3):
            cfg = _suggest(gen, h)
            assert resource(cfg) <= small * 1.01

    def test_no_duplicate_of_observed(self, space):
        prob = TuningProblem(beta=0.5)
        gen = ConfigGenerator(space, prob, seed=0, use_agd=False)
        h = _history(space, prob, n=6)
        seen = {tuple(sorted(o.config.items())) for o in h.observations}
        cfg = _suggest(gen, h)
        assert tuple(sorted(cfg.items())) not in seen

    def test_safe_region_avoids_predicted_violations(self, space):
        # runtime grows steeply with instances; threshold excludes the top
        i_inst = space.index_of("spark.executor.instances")

        def rt(cfg):
            return 10.0 + 1000.0 * space.to_unit(cfg)[i_inst]

        prob = TuningProblem(beta=0.5, t_max=200.0)
        gen = ConfigGenerator(space, prob, seed=0, use_agd=False)
        h = _history(space, prob, n=14, runtime_fn=rt)
        picks = [_suggest(gen, h) for _ in range(5)]
        # most picks should sit in the low-instances (safe) half
        units = [space.to_unit(c)[i_inst] for c in picks]
        assert np.mean(units) < 0.6

    def test_last_ei_updated(self, space):
        prob = TuningProblem(beta=0.5)
        gen = ConfigGenerator(space, prob, seed=0, use_agd=False)
        h = _history(space, prob)
        gen.suggest(h)
        assert np.isfinite(gen.last_ei)

    def test_subspace_pins_unimportant_dims(self, space):
        prob = TuningProblem(beta=0.5)
        gen = ConfigGenerator(space, prob, seed=0, use_agd=False, use_safe=False)
        gen.subspace.k = gen.subspace.k_min = gen.subspace.k_max = 4
        h = _history(space, prob)
        best = h.best().config
        cfg = _suggest(gen, h)
        dims = set(gen.subspace.current_dims())
        diffs = [
            i for i, p in enumerate(space.params) if cfg[p.name] != best[p.name]
        ]
        assert set(diffs) <= dims


class TestCandidates:
    """Rows of the candidate matrix that the history and the white-box
    resource constraint rule out."""

    N = 40
    I_FLAG = ConfigSpace().index_of("spark.shuffle.compress")  # True by default

    @pytest.fixture(autouse=True)
    def _few_candidates(self, monkeypatch):
        monkeypatch.setattr("repro.core.generator.N_CANDIDATES", self.N)

    def _gen(self, space, problem, dims):
        gen = ConfigGenerator(space, problem, seed=0, use_agd=False)
        gen.subspace.current_dims = lambda: dims
        return gen

    @staticmethod
    def _history(space, problem, configs):
        h = RunHistory(space, problem)
        for rt, cfg in enumerate(configs, start=100):  # the first is the incumbent
            h.add(cfg, ExecResult(runtime_s=float(rt), mem_gbh=1, cpu_coreh=1, datasize_mb=1000))
        return h

    def test_drops_history_configs(self, space):
        prob = TuningProblem(beta=0.5)
        h = self._history(space, prob, [space.default_config()])
        raw, V, U = _full(self._gen(space, prob, [self.I_FLAG])._candidates(h))
        # only the flag varies: every row left is the default with it flipped
        assert 0 < len(U) < self.N
        assert not (U[:, None, :] == h.X_unit()[None]).all(axis=2).any()
        assert (V[:, self.I_FLAG] == 0).all()
        flipped = space.default_config() | {"spark.shuffle.compress": False}
        assert [space.from_unit(u) for u in raw] == [flipped] * len(raw)

    def test_keeps_all_when_every_candidate_is_seen(self, space):
        prob = TuningProblem(beta=0.5)
        flipped = space.default_config() | {"spark.shuffle.compress": False}
        h = self._history(space, prob, [space.default_config(), flipped])
        raw, V, U = _full(self._gen(space, prob, [self.I_FLAG])._candidates(h))
        assert len(raw) == len(V) == len(U) == self.N

    def _proposed(self, space, threshold, monkeypatch):
        """The candidate count, and the resource of every row handed to
        propose()."""
        prob = TuningProblem(beta=0.5, r_max=threshold)
        gen = self._gen(space, prob, [space.index_of("spark.executor.instances")])
        pool, seen = [], []
        candidates = gen._candidates

        def spy_candidates(history):
            out = candidates(history)
            pool.append(len(out))
            return out

        def spy_propose(history, X, *args, **kwargs):
            seen.extend(resource(space.from_unit(u)) for u in X[:, :space.dim])
            return 0, 1.0

        gen._candidates = spy_candidates
        monkeypatch.setattr("repro.core.generator.propose", spy_propose)
        gen.suggest(_history(space, prob))
        return pool[0], seen

    def test_resource_filter_drops_violations(self, space, monkeypatch):
        small = resource(space.clip(space.default_config() | {"spark.executor.instances": 20}))
        n, seen = self._proposed(space, small, monkeypatch)
        assert 0 < len(seen) < n and max(seen) <= small

    def test_resource_filter_keeps_all_when_none_pass(self, space, monkeypatch):
        n, seen = self._proposed(space, 1e-3, monkeypatch)
        assert len(seen) == n > 0

    def test_resource_filter_copies_nothing_when_all_pass(self, space, monkeypatch):
        prob = TuningProblem(beta=0.5, r_max=1e12)
        gen = self._gen(space, prob, [space.index_of("spark.executor.instances")])
        drawn, formed = [], []
        candidates, rows = gen._candidates, SubspaceRows.rows

        def spy_candidates(history):
            drawn.append(candidates(history))
            return drawn[-1]

        def spy_rows(cands, *args):
            formed.append(cands)
            return rows(cands, *args)

        gen._candidates = spy_candidates
        monkeypatch.setattr(SubspaceRows, "rows", spy_rows)
        gen.suggest(_history(space, prob))
        assert len(drawn) == len(formed) == 1 and formed[0] is drawn[0]


_CAT_DIMS = [i for i, p in enumerate(ConfigSpace().params) if p.kind == "cat"]


class TestDedupEqualsBroadcast:
    """``_candidates`` keeps the rows that the broadcast reference
    ``~(U[:, None] == X[None]).all(2).any(1)`` keeps, and every row when
    it keeps none."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1),
           st.lists(st.sampled_from(_CAT_DIMS), min_size=1, max_size=3, unique=True),
           st.integers(1, 8), st.integers(0, 4), st.booleans())
    @example(seed=0, dims=[_CAT_DIMS[0]], n_hist=8, repeats=2, numeric=False)
    @example(seed=1, dims=_CAT_DIMS[:3], n_hist=2, repeats=0, numeric=True)
    def test_keeps_the_rows_of_the_broadcast_reference(self, seed, dims, n_hist, repeats,
                                                       numeric):
        space, rng = ConfigSpace(), np.random.default_rng(seed)
        if numeric:  # a redrawn dim with more values than a categorical
            dims = dims + [space.index_of("spark.executor.cores")]
        # the history varies only the candidates' dims, and repeats runs,
        # so that candidates equal history rows, often every candidate
        default = space.to_unit(space.default_config())
        configs = []
        for _ in range(n_hist):
            u = default.copy()
            u[dims] = rng.random(len(dims))
            configs.append(space.from_unit(u))
        configs += [configs[i] for i in rng.integers(0, n_hist, repeats)]
        prob = TuningProblem(beta=0.5)
        h = RunHistory(space, prob)
        for rt, cfg in enumerate(configs, start=100):
            h.add(cfg, ExecResult(runtime_s=float(rt), mem_gbh=1, cpu_coreh=1, datasize_mb=1000))
        drawn, snap = [], space.snap_subspace

        def spy_snap(B, dims, base):
            drawn.append(snap(B, dims, base))
            return drawn[-1]

        space.snap_subspace = spy_snap
        gen = ConfigGenerator(space, prob, seed=seed % 1000, use_agd=False)
        gen.subspace.current_dims = lambda: dims
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("repro.core.generator.N_CANDIDATES", 40)
            cands = gen._candidates(h)
        block, = drawn
        got, (raw, V, U) = (cands.raw, cands.values, cands.units), \
            (block.raw, block.values, block.units)
        keep = ~(block.rows()[:, None] == h.X_unit()[None]).all(2).any(1)
        event("every row a duplicate" if not keep.any() else
              "some rows duplicates" if not keep.all() else "no duplicates")
        keep = keep if keep.any() else np.ones(len(U), bool)
        for a, b in zip(got, (raw, V, U)):
            assert np.array_equal(a, b[keep])
            assert (a is b) == keep.all()  # none dropped: no copy
