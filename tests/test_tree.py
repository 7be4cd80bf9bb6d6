"""Unit tests for the CART regression tree substrate."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.tree import RegressionTree


def _xor_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 2))
    y = ((X[:, 0] > 0.5) ^ (X[:, 1] > 0.5)).astype(float)
    return X, y


class TestFitPredict:
    def test_constant_target(self):
        X = np.random.default_rng(0).random((50, 3))
        t = RegressionTree().fit(X, np.full(50, 7.0))
        assert np.allclose(t.predict(X), 7.0)

    def test_perfect_split_1d(self):
        X = np.array([[0.1], [0.2], [0.8], [0.9]])
        y = np.array([1.0, 1.0, 5.0, 5.0])
        t = RegressionTree().fit(X, y)
        assert np.allclose(t.predict(X), y)
        assert np.allclose(t.predict(np.array([[0.0], [1.0]])), [1.0, 5.0])

    def test_xor_interaction(self):
        X, y = _xor_data()
        t = RegressionTree(max_depth=4).fit(X, y)
        # XOR needs depth >= 2; a full CART recovers it almost exactly
        assert np.mean((t.predict(X) - y) ** 2) < 0.05

    def test_max_depth_limits_structure(self):
        X, y = _xor_data()
        stump = RegressionTree(max_depth=0).fit(X, y)
        assert np.allclose(stump.predict(X), y.mean())

    def test_min_samples_leaf(self):
        X = np.arange(10, dtype=float)[:, None]
        y = np.arange(10, dtype=float)
        t = RegressionTree(min_samples_leaf=5).fit(X, y)
        # only one split possible (5|5)
        preds = np.unique(t.predict(X))
        assert len(preds) <= 2

    def test_deterministic_given_rng(self):
        X, y = _xor_data()
        t1 = RegressionTree(max_features=1, rng=np.random.default_rng(3)).fit(X, y)
        t2 = RegressionTree(max_features=1, rng=np.random.default_rng(3)).fit(X, y)
        grid = np.random.default_rng(1).random((50, 2))
        assert np.array_equal(t1.predict(grid), t2.predict(grid))

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            RegressionTree().predict(np.zeros((1, 2)))

    def test_bad_input_raises(self):
        with pytest.raises(ValueError):
            RegressionTree().fit(np.zeros(5), np.zeros(5))
        with pytest.raises(ValueError):
            RegressionTree().fit(np.zeros((5, 2)), np.zeros(4))
        with pytest.raises(ValueError):
            RegressionTree().fit(np.zeros((0, 2)), np.zeros(0))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=5, max_value=60), st.integers(min_value=0, max_value=10))
    def test_predictions_within_target_range(self, n, seed):
        rng = np.random.default_rng(seed)
        X = rng.random((n, 3))
        y = rng.normal(size=n)
        t = RegressionTree().fit(X, y)
        p = t.predict(rng.random((20, 3)))
        assert p.min() >= y.min() - 1e-9 and p.max() <= y.max() + 1e-9


class TestLeafBoxes:
    def test_boxes_partition_domain(self):
        X, y = _xor_data()
        t = RegressionTree(max_depth=3).fit(X, y)
        boxes = t.leaf_boxes(np.zeros(2), np.ones(2))
        vol = sum(np.prod(b.upper - b.lower) for b in boxes)
        assert vol == pytest.approx(1.0)

    def test_boxes_predict_consistent(self):
        X, y = _xor_data()
        t = RegressionTree(max_depth=4).fit(X, y)
        boxes = t.leaf_boxes(np.zeros(2), np.ones(2))
        rng = np.random.default_rng(2)
        pts = rng.random((100, 2))
        preds = t.predict(pts)
        for p, pred in zip(pts, preds):
            matching = [
                b for b in boxes
                if np.all(b.lower <= p) and np.all(p <= b.upper)
            ]
            assert any(abs(b.value - pred) < 1e-12 for b in matching)

    def test_stump_single_box(self):
        t = RegressionTree(max_depth=0).fit(np.zeros((5, 2)), np.ones(5))
        boxes = t.leaf_boxes(np.zeros(2), np.ones(2))
        assert len(boxes) == 1 and boxes[0].value == 1.0

    def test_unfitted_boxes_raises(self):
        with pytest.raises(RuntimeError):
            RegressionTree().leaf_boxes(np.zeros(2), np.ones(2))


def _reference_best_split(tree, X, y):
    """The per-feature split search, one feature at a time."""
    n, d = X.shape
    feats = np.arange(d)
    if tree.max_features is not None and tree.max_features < d:
        feats = tree.rng.choice(d, size=tree.max_features, replace=False)
    best_gain, best = 0.0, (-1, 0.0)
    base_sse = float(((y - y.mean()) ** 2).sum())
    msl = tree.min_samples_leaf
    for f in feats:
        order = np.argsort(X[:, f], kind="stable")
        xs, ys = X[order, f], y[order]
        csum, csq = np.cumsum(ys), np.cumsum(ys**2)
        tot, totsq = csum[-1], csq[-1]
        idx = np.arange(1, n)
        valid = (xs[1:] > xs[:-1]) & (idx >= msl) & (n - idx >= msl)
        if not valid.any():
            continue
        nl = idx[valid].astype(np.float64)
        sl, sql = csum[:-1][valid], csq[:-1][valid]
        sse = (sql - sl**2 / nl) + ((totsq - sql) - (tot - sl) ** 2 / (n - nl))
        k = int(np.argmin(sse))
        gain = base_sse - float(sse[k])
        if gain > best_gain + 1e-12:
            i = idx[valid][k]
            best_gain = gain
            best = (int(f), float((xs[i - 1] + xs[i]) / 2.0))
    return best


@st.composite
def _split_case(draw):
    """X with repeated values and constant columns, y with ties, and the
    tree's leaf size and feature subsampling."""
    n, d = draw(st.integers(2, 40)), draw(st.integers(1, 6))
    levels = draw(st.integers(1, 6))
    X = np.array(draw(st.lists(st.integers(0, levels), min_size=n * d, max_size=n * d)),
                 dtype=float).reshape(n, d) / levels
    for j in range(d):
        if draw(st.booleans()) and draw(st.booleans()):
            X[:, j] = X[0, j]
    y = np.array(draw(st.lists(st.one_of(st.integers(-3, 3).map(float), st.floats(-1e3, 1e3)),
                               min_size=n, max_size=n)))
    msl = draw(st.integers(1, 3))
    max_features = draw(st.one_of(st.none(), st.integers(1, d)))
    return X, y, msl, max_features, draw(st.integers(0, 2**32 - 1))


class TestBestSplit:
    @settings(max_examples=200, deadline=None)
    @given(_split_case())
    def test_equals_per_feature_loop(self, case):
        X, y, msl, max_features, seed = case

        def tree():
            return RegressionTree(min_samples_leaf=msl, max_features=max_features,
                                  rng=np.random.default_rng(seed))

        assert tree()._best_split(X, y) == _reference_best_split(tree(), X, y)
