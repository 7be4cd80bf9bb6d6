"""Unit tests for the gradient-boosted regressor (LightGBM stand-in)."""
import numpy as np
import pytest

from repro.ml.gbm import GradientBoostedRegressor


def _wave(n=300, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 2))
    y = np.sin(4 * X[:, 0]) + 0.5 * X[:, 1]
    return X, y


class TestGBM:
    def test_fits_nonlinear_function(self):
        X, y = _wave()
        m = GradientBoostedRegressor(n_estimators=120).fit(X, y)
        assert np.mean((m.predict(X) - y) ** 2) < 0.01

    def test_generalizes(self):
        X, y = _wave()
        Xt, yt = _wave(seed=1)
        m = GradientBoostedRegressor(n_estimators=120).fit(X, y)
        mse = np.mean((m.predict(Xt) - yt) ** 2)
        assert mse < 0.25 * np.var(yt)

    def test_more_stages_reduce_train_error(self):
        X, y = _wave()
        e = []
        for n in (5, 40, 160):
            m = GradientBoostedRegressor(n_estimators=n).fit(X, y)
            e.append(np.mean((m.predict(X) - y) ** 2))
        assert e[0] > e[1] > e[2]

    def test_deterministic(self):
        X, y = _wave(100)
        p1 = GradientBoostedRegressor(n_estimators=20).fit(X, y).predict(X)
        p2 = GradientBoostedRegressor(n_estimators=20).fit(X, y).predict(X)
        assert np.array_equal(p1, p2)

    def test_constant_target(self):
        X = np.random.default_rng(0).random((40, 2))
        m = GradientBoostedRegressor(n_estimators=10).fit(X, np.full(40, 2.5))
        assert np.allclose(m.predict(X), 2.5, atol=1e-9)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            GradientBoostedRegressor().predict(np.zeros((1, 2)))

    def test_prediction_shape(self):
        X, y = _wave(50)
        m = GradientBoostedRegressor(n_estimators=5).fit(X, y)
        assert m.predict(np.zeros((7, 2))).shape == (7,)
