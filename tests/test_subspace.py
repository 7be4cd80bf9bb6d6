"""Unit tests for adaptive sub-space generation (§4.1)."""
import numpy as np
import pytest

from repro.core import subspace
from repro.core.config_space import ConfigSpace
from repro.core.subspace import EXPERT_RANKING, SubspaceManager


@pytest.fixture()
def mgr():
    return SubspaceManager(ConfigSpace(), seed=0)


class TestInitialState:
    def test_paper_hyperparameters(self, mgr):
        assert mgr.k == 10 and mgr.k_min == 4
        assert subspace.TAU_SUCC == 3 and subspace.TAU_FAIL == 5
        assert mgr.k_max == 30

    def test_expert_ranking_first(self, mgr):
        dims = mgr.current_dims()
        names = [mgr.space.names[i] for i in dims]
        assert names[:3] == list(EXPERT_RANKING[:3])
        assert len(dims) == 10

    def test_dims_unique(self, mgr):
        dims = mgr.current_dims()
        assert len(set(dims)) == len(dims)


class TestEvolution:
    def test_grow_after_successes(self, mgr):
        for _ in range(3):
            mgr.record(True)
        assert mgr.k == 12

    def test_shrink_after_failures(self, mgr):
        for _ in range(5):
            mgr.record(False)
        assert mgr.k == 8

    def test_counters_reset_on_resize(self, mgr):
        for _ in range(3):
            mgr.record(True)  # k -> 12, counters reset
        mgr.record(True)
        mgr.record(True)
        assert mgr.k == 12  # only 2 successes since reset
        mgr.record(True)
        assert mgr.k == 14

    def test_mixed_outcomes_reset_streaks(self, mgr):
        mgr.record(True)
        mgr.record(True)
        mgr.record(False)  # success streak broken
        mgr.record(True)
        mgr.record(True)
        assert mgr.k == 10

    def test_k_bounds(self, monkeypatch):
        monkeypatch.setattr(subspace, "K_INIT", 4)
        m = SubspaceManager(ConfigSpace(), seed=0)
        assert m.k == 4
        for _ in range(50):
            m.record(False)
        assert m.k == m.k_min
        for _ in range(200):
            m.record(True)
        assert m.k == m.k_max


class TestImportanceRefit:
    def test_refit_reranks_dimensions(self):
        space = ConfigSpace()
        m = SubspaceManager(space, seed=0)
        rng = np.random.default_rng(0)
        X = rng.random((20, space.dim))
        target_dim = space.index_of("spark.locality.wait")  # low in expert ranking
        y = 50.0 * X[:, target_dim]
        m.update_importance(X, y)
        assert m.current_dims()[0] == target_dim
        assert m.importance is not None

    def test_no_refit_below_min_history(self):
        space = ConfigSpace()
        m = SubspaceManager(space, seed=0)
        X = np.random.default_rng(0).random((subspace.REFIT_EVERY, space.dim))
        assert len(X) < subspace.MIN_HISTORY
        m.update_importance(X, X[:, 0])
        assert m.importance is None

    def test_constant_history_keeps_expert_order(self):
        """A history whose penalized objective never varies has no
        variance to attribute: every importance is 0 and the ranking is
        the expert prior's."""
        space = ConfigSpace()
        m = SubspaceManager(space, seed=0)
        before = m.current_dims()
        X = np.random.default_rng(0).random((10, space.dim))
        m.update_importance(X, np.full(10, 3.0))
        assert m.importance is not None and np.all(m.importance == 0.0)
        assert m.current_dims() == before
        names = [space.names[i] for i in m.current_dims()]
        assert names == [n for n in EXPERT_RANKING if n in space.names][: m.k]

    def test_refit_only_on_period(self):
        space = ConfigSpace()
        m = SubspaceManager(space, seed=0)
        X = np.random.default_rng(0).random((11, space.dim))
        m.update_importance(X, X[:, 0])  # 11 % 5 != 0 → skipped
        assert m.importance is None
