"""Unit tests for the mixed-kernel Gaussian process surrogate."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gp import GaussianProcess, MixedKernel, _matern52


def _numeric_mask(d):
    return np.zeros(d, dtype=bool)


class TestKernel:
    def test_self_similarity_is_one(self):
        k = MixedKernel(_numeric_mask(3))
        X = np.random.default_rng(0).random((5, 3))
        assert np.allclose(np.diag(k(X, X)), 1.0)

    def test_symmetry(self):
        k = MixedKernel(_numeric_mask(3))
        X = np.random.default_rng(0).random((6, 3))
        K = k(X, X)
        assert np.allclose(K, K.T)

    def test_decay_with_distance(self):
        k = MixedKernel(_numeric_mask(1))
        a = np.array([[0.0]])
        vals = [k(a, np.array([[x]]))[0, 0] for x in (0.0, 0.3, 0.9)]
        assert vals[0] > vals[1] > vals[2]

    def test_psd(self):
        k = MixedKernel(_numeric_mask(4))
        X = np.random.default_rng(1).random((20, 4))
        eig = np.linalg.eigvalsh(k(X, X))
        assert eig.min() > -1e-8

    def test_hamming_on_categoricals(self):
        mask = np.array([False, True])
        k = MixedKernel(mask)
        a = np.array([[0.5, 0.0]])
        same = np.array([[0.5, 0.0]])
        diff = np.array([[0.5, 1.0]])
        assert k(a, same)[0, 0] > k(a, diff)[0, 0]

    def test_datasize_factor(self):
        k = MixedKernel(_numeric_mask(1), has_datasize=True)
        a = np.array([[0.5, 0.2]])
        near = np.array([[0.5, 0.25]])
        far = np.array([[0.5, 0.9]])
        assert k(a, near)[0, 0] > k(a, far)[0, 0]

    def test_matern52_at_zero(self):
        assert _matern52(np.array([0.0]))[0] == pytest.approx(1.0)


class TestGP:
    def _fit(self, f, n=25, d=2, seed=0, **kw):
        rng = np.random.default_rng(seed)
        X = rng.random((n, d))
        y = f(X)
        gp = GaussianProcess(_numeric_mask(d), **kw).fit(X, y)
        return gp, X, y

    def test_interpolates_training_points(self):
        gp, X, y = self._fit(lambda X: np.sin(3 * X[:, 0]) + X[:, 1])
        mu, _ = gp.predict(X)
        assert np.max(np.abs(mu - y)) < 0.2

    def test_generalizes_smooth_function(self):
        gp, _, _ = self._fit(lambda X: np.sin(3 * X[:, 0]) + X[:, 1], n=40)
        rng = np.random.default_rng(9)
        Xt = rng.random((30, 2))
        yt = np.sin(3 * Xt[:, 0]) + Xt[:, 1]
        mu, _ = gp.predict(Xt)
        assert np.mean((mu - yt) ** 2) < 0.1 * np.var(yt)

    def test_uncertainty_grows_off_data(self):
        rng = np.random.default_rng(0)
        X = rng.random((15, 2)) * 0.3  # data only in a corner
        y = X[:, 0]
        gp = GaussianProcess(_numeric_mask(2)).fit(X, y)
        _, sd_near = gp.predict(np.array([[0.15, 0.15]]))
        _, sd_far = gp.predict(np.array([[0.95, 0.95]]))
        assert sd_far[0] > sd_near[0]

    def test_constant_targets(self):
        gp, X, _ = self._fit(lambda X: np.full(len(X), 5.0))
        mu, sd = gp.predict(X)
        assert np.allclose(mu, 5.0, atol=1e-6)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            GaussianProcess(_numeric_mask(2)).predict(np.zeros((1, 2)))

    def test_single_observation(self):
        gp = GaussianProcess(_numeric_mask(2)).fit(np.array([[0.5, 0.5]]), np.array([3.0]))
        mu, sd = gp.predict(np.array([[0.5, 0.5]]))
        assert np.isfinite(mu[0]) and np.isfinite(sd[0])

    def test_noise_robustness(self):
        rng = np.random.default_rng(3)
        X = rng.random((60, 1))
        y = 2 * X[:, 0] + rng.normal(0, 0.1, 60)
        gp = GaussianProcess(_numeric_mask(1)).fit(X, y)
        mu, _ = gp.predict(np.array([[0.25], [0.75]]))
        assert mu[1] - mu[0] == pytest.approx(1.0, abs=0.3)

    def test_datasize_input(self):
        rng = np.random.default_rng(4)
        X = np.concatenate([rng.random((30, 2)), rng.random((30, 1))], axis=1)
        y = X[:, 0] + 2.0 * X[:, 2]  # depends on the datasize column
        gp = GaussianProcess(_numeric_mask(2), has_datasize=True).fit(X, y)
        mu_small, _ = gp.predict(np.array([[0.5, 0.5, 0.1]]))
        mu_big, _ = gp.predict(np.array([[0.5, 0.5, 0.9]]))
        assert mu_big[0] > mu_small[0]

    def test_categorical_dims(self):
        mask = np.array([False, True])
        rng = np.random.default_rng(5)
        Xn = rng.random(40)
        Xc = rng.integers(0, 2, 40).astype(float)
        X = np.stack([Xn, Xc], axis=1)
        y = Xn + 3.0 * Xc
        gp = GaussianProcess(mask).fit(X, y)
        mu0, _ = gp.predict(np.array([[0.5, 0.0]]))
        mu1, _ = gp.predict(np.array([[0.5, 1.0]]))
        assert mu1[0] - mu0[0] > 1.0

    def test_std_nonnegative(self):
        gp, X, _ = self._fit(lambda X: X[:, 0])
        _, sd = gp.predict(np.random.default_rng(0).random((50, 2)))
        assert np.all(sd >= 0)

    def test_nan_input_raises(self):
        X = np.random.default_rng(0).random((6, 2))
        X[2, 1] = np.nan
        with pytest.raises(ValueError):
            GaussianProcess(_numeric_mask(2)).fit(X, X[:, 0])

    def test_inf_target_raises(self):
        X = np.random.default_rng(0).random((6, 2))
        y = X[:, 0].copy()
        y[3] = np.inf
        with pytest.raises(ValueError):
            GaussianProcess(_numeric_mask(2)).fit(X, y)

    def test_cholesky_failure_raises(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", fail)
        X = np.random.default_rng(0).random((6, 2))
        with pytest.raises(np.linalg.LinAlgError):
            GaussianProcess(_numeric_mask(2)).fit(X, X[:, 0])


_unit = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def _data(draw, grid: bool):
    """(X, y) in the unit square; ``grid`` puts the rows on distinct
    points of a 5×5 grid, so that they are 0.25 apart at least."""
    if grid:
        cells = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                              min_size=2, max_size=10, unique=True))
        X = np.array(cells, dtype=float) / 4.0
    else:
        n = draw(st.integers(1, 12))
        X = np.array(draw(st.lists(st.tuples(_unit, _unit), min_size=n, max_size=n)))
    y = draw(st.lists(st.floats(-1e3, 1e3), min_size=len(X), max_size=len(X)))
    return X, np.array(y)


class TestGPProperties:
    @settings(max_examples=40, deadline=None)
    @given(_data(grid=False), st.lists(st.tuples(_unit, _unit), min_size=1, max_size=8))
    def test_posterior_std_nonnegative(self, data, queries):
        X, y = data
        mu, sd = GaussianProcess(_numeric_mask(2)).fit(X, y).predict(np.array(queries))
        assert np.all(np.isfinite(mu)) and np.all(sd >= 0)

    @settings(max_examples=40, deadline=None)
    @given(_data(grid=True))
    def test_interpolates_at_low_noise(self, data):
        X, y = data
        mu, _ = GaussianProcess(_numeric_mask(2), noise_grid=(1e-4,)).fit(X, y).predict(X)
        assert np.max(np.abs(mu - y)) <= 1e-2 * y.std() + 1e-9
