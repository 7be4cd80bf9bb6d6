"""Unit tests for the random forest regressor."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.forest import RandomForestRegressor, draw_subsets


def _friedman(n=300, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 5))
    y = 10 * np.sin(np.pi * X[:, 0] * X[:, 1]) + 20 * (X[:, 2] - 0.5) ** 2 + X[:, 3]
    return X, y


class TestForest:
    def test_beats_mean_baseline(self):
        X, y = _friedman()
        f = RandomForestRegressor(n_estimators=20, seed=0).fit(X, y)
        Xt, yt = _friedman(seed=1)
        mse_model = np.mean((f.predict(Xt) - yt) ** 2)
        mse_mean = np.mean((yt - y.mean()) ** 2)
        assert mse_model < 0.5 * mse_mean

    def test_deterministic_seed(self):
        X, y = _friedman(100)
        p1 = RandomForestRegressor(n_estimators=5, seed=7).fit(X, y).predict(X)
        p2 = RandomForestRegressor(n_estimators=5, seed=7).fit(X, y).predict(X)
        assert np.array_equal(p1, p2)

    def test_seed_changes_model(self):
        X, y = _friedman(100)
        p1 = RandomForestRegressor(n_estimators=5, seed=1).fit(X, y).predict(X)
        p2 = RandomForestRegressor(n_estimators=5, seed=2).fit(X, y).predict(X)
        assert not np.array_equal(p1, p2)

    def test_n_estimators(self):
        X, y = _friedman(60)
        f = RandomForestRegressor(n_estimators=9, seed=0).fit(X, y)
        assert len(f.stack.roots) == 9

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            RandomForestRegressor().predict(np.zeros((2, 3)))

    def test_prediction_shape(self):
        X, y = _friedman(50)
        f = RandomForestRegressor(n_estimators=3, seed=0).fit(X, y)
        assert f.predict(np.zeros((17, 5))).shape == (17,)

    def test_predictions_within_range(self):
        X, y = _friedman(80)
        f = RandomForestRegressor(n_estimators=10, seed=0).fit(X, y)
        p = f.predict(np.random.default_rng(3).random((40, 5)))
        assert p.min() >= y.min() and p.max() <= y.max()

    def test_max_features_default(self):
        X, y = _friedman(50)
        f = RandomForestRegressor(n_estimators=2, seed=0)
        f.fit(X, y)  # should not raise; default d//3 applied internally
        assert f.predict(X).shape == (50,)


class TestDrawSubsets:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 40).flatmap(lambda d: st.tuples(st.just(d), st.integers(1, d - 1))),
           st.integers(0, 63), st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=3))
    def test_rows_equal_successive_choice_draws(self, dm, k, seeds):
        d, m = dm
        got = draw_subsets(seeds, d, m, k)
        assert got.shape == (len(seeds), k, m)
        for rows, seed in zip(got, seeds):
            rng = np.random.default_rng(seed)
            ref = [rng.choice(d, size=m, replace=False) for _ in range(k)]
            assert np.array_equal(rows, np.reshape(ref, (k, m)))
