"""Unit tests for approximate gradient descent (§4.3)."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import agd
from repro.core.agd import AGDStepper, N_AGD
from repro.core.bo import Surrogates
from repro.core.config_space import ConfigSpace
from repro.core.gp import GaussianProcess
from repro.core.objective import resource


@pytest.fixture(scope="module")
def space():
    return ConfigSpace()


def _flat_runtime_gp(space, n=20, seed=0):
    """Runtime surrogate for a constant runtime — ∂T ≈ 0 everywhere.

    Fit on log-runtime, matching what the generator hands the stepper.
    """
    rng = np.random.default_rng(seed)
    X = rng.random((n, space.dim))
    return GaussianProcess(space.cat_mask).fit(X, np.log(np.full(n, 100.0)))


def _step(space, start, runtime_gp, *, beta=0.5, dims=None):
    """One step from the config ``start``, as a config."""
    u = AGDStepper(space, beta).step(
        space.to_unit(start), Surrogates(None, runtime_gp, None), dims=dims)
    return space.from_unit(u)


class TestAGD:
    def test_paper_cadence_constant(self):
        assert N_AGD == 5

    def test_resource_descent_with_flat_runtime(self, space):
        # with ∂T≈0 and beta=0.5, the step must reduce the resource term
        gp = _flat_runtime_gp(space)
        start = space.clip(space.default_config() | {"spark.executor.instances": 100})
        nxt = _step(space, start, gp)
        assert resource(nxt) <= resource(start)

    def test_returns_valid_config(self, space):
        gp = _flat_runtime_gp(space)
        u = AGDStepper(space, beta=0.5).step(
            space.to_unit(space.default_config()), Surrogates(None, gp, None))
        assert u.shape == (space.dim,)
        assert np.all((u >= 0) & (u <= 1))
        assert set(space.from_unit(u)) == set(space.names)

    def test_categoricals_unchanged(self, space):
        gp = _flat_runtime_gp(space)
        start = space.default_config()
        nxt = _step(space, start, gp)
        for p in space.params:
            if p.kind == "cat":
                assert nxt[p.name] == start[p.name]

    def test_dims_restriction(self, space):
        gp = _flat_runtime_gp(space)
        start = space.clip(space.default_config() | {"spark.executor.instances": 100})
        i_inst = space.index_of("spark.executor.instances")
        i_mem = space.index_of("spark.executor.memory")
        nxt = _step(space, start, gp, dims=[i_mem])
        assert nxt["spark.executor.instances"] == start["spark.executor.instances"]

    def test_step_norm_clipped(self, space, monkeypatch):
        gp = _flat_runtime_gp(space)
        monkeypatch.setattr(agd, "ETA", 1e9)  # absurd LR
        start = space.default_config()
        nxt = _step(space, start, gp)
        du = space.to_unit(nxt) - space.to_unit(start)
        assert np.linalg.norm(du) <= agd.MAX_STEP + 0.05  # + grid snap

    def test_beta_one_follows_runtime_gradient(self, space):
        # runtime that increases with instances → beta=1 step reduces them
        rng = np.random.default_rng(0)
        X = rng.random((40, space.dim))
        i = space.index_of("spark.executor.instances")
        gp = GaussianProcess(space.cat_mask).fit(X, np.log(100.0 + 50.0 * X[:, i]))
        start = space.clip(space.default_config() | {"spark.executor.instances": 100})
        nxt = _step(space, start, gp, beta=1.0)
        assert nxt["spark.executor.instances"] <= start["spark.executor.instances"]


class TestProbeSnap:
    """The probes go through the snap on their moved dims only; the step
    equals the one whose probes are snapped whole, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.one_of(
        st.none(), st.lists(st.integers(0, 29), min_size=1, max_size=30, unique=True)),
        st.sampled_from([0.0, 0.5, 1.0]))
    @example(seed=0, dims=[ConfigSpace().index_of("spark.memory.fraction")], beta=0.5)
    @example(seed=1, dims=list(range(30)), beta=0.5)
    def test_equals_step_with_whole_probe_rows(self, seed, dims, beta):
        space, rng = ConfigSpace(), np.random.default_rng(seed)
        X = rng.random((15, space.dim))
        i = space.index_of("spark.executor.instances")
        gp = GaussianProcess(space.cat_mask).fit(X, np.log(100.0 + 50.0 * X[:, i]))
        u = space.snap(rng.random((1, space.dim)))[1][0] if seed % 2 else rng.random(space.dim)
        surrogates = Surrogates(None, gp, None)
        got = AGDStepper(space, beta).step(u, surrogates, dims=dims)
        snap_subspace = space.snap_subspace

        def whole_rows(B, dims, base):
            P = np.tile(base, (len(B), 1))
            P[:, dims] = B
            return snap_subspace(P, range(space.dim), base)

        space.snap_subspace = whole_rows
        assert np.array_equal(got, AGDStepper(space, beta).step(u, surrogates, dims=dims))
