"""Unit tests for fANOVA importance over random forests."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.fanova import _importances, fanova_importance
from repro.ml.forest import RandomForestRegressor, draw_subsets
from tests.test_tree import _fit_tree, _trees


def _fit_forest(fn, d=4, n=400, seed=0, **kw):
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    y = fn(X)
    return RandomForestRegressor(n_estimators=10, seed=seed, max_features=d, **kw).fit(X, y), d


def _ranking(imp):
    return np.argsort(-imp, kind="stable")


class TestSingleImportance:
    def test_single_dominant_dim(self):
        f, d = _fit_forest(lambda X: 10.0 * X[:, 0] + 0.1 * X[:, 1])
        imp = fanova_importance(f, d)
        assert _ranking(imp)[0] == 0
        assert imp[0] > 0.7
        assert imp[2] < 0.05 and imp[3] < 0.05

    def test_two_dims_ordered(self):
        f, d = _fit_forest(lambda X: 5.0 * X[:, 1] + 2.0 * X[:, 3])
        assert list(_ranking(fanova_importance(f, d))[:2]) == [1, 3]

    def test_importances_are_fractions(self):
        f, d = _fit_forest(lambda X: X[:, 0] + X[:, 1] ** 2)
        imp = fanova_importance(f, d)
        assert np.all(imp >= 0)
        assert imp.sum() <= 1.0 + 1e-6

    def test_constant_function_zero(self):
        f, d = _fit_forest(lambda X: np.full(len(X), 3.0))
        assert np.allclose(fanova_importance(f, d), 0.0)


class TestVarianceDecomposition:
    def test_additive_fractions_sum_near_one(self):
        f, d = _fit_forest(lambda X: 2 * X[:, 0] + 5 * X[:, 1] + 1 * X[:, 2], n=800)
        # an additive function's variance is (nearly) fully explained by singles
        assert fanova_importance(f, d).sum() > 0.85

    def test_ranking_is_permutation(self):
        f, d = _fit_forest(lambda X: X @ np.array([1.0, 2.0, 3.0, 4.0]))
        assert sorted(_ranking(fanova_importance(f, d))) == list(range(d))


def _reference_leaf_boxes(tree, lower, upper):
    """Leaves as (value, lo, hi), from a recursive walk that skips any
    child whose region misses the domain ``[lower, upper]``."""
    boxes = []

    def walk(node, lo, hi):
        f, t = tree.feature[node], tree.threshold[node]
        if f < 0:
            boxes.append((tree.value[node], lo.copy(), hi.copy()))
            return
        if t >= lo[f]:  # left child region non-empty
            saved = hi[f]
            hi[f] = min(hi[f], t)
            walk(tree.left[node], lo, hi)
            hi[f] = saved
        if t < hi[f]:  # right child region non-empty
            saved = lo[f]
            lo[f] = max(lo[f], t)
            walk(tree.right[node], lo, hi)
            lo[f] = saved

    walk(0, lower.copy(), upper.copy())
    return boxes


def _reference_tree_importance(tree, lower, upper):
    """Every dimension's importance, one dimension at a time, split on
    or not."""
    d = len(lower)
    boxes = _reference_leaf_boxes(tree, lower, upper)
    rng = upper - lower
    rng = np.where(rng <= 0, 1.0, rng)
    vals = np.array([b[0] for b in boxes])
    lo = np.array([b[1] for b in boxes])
    hi = np.array([b[2] for b in boxes])
    frac = np.clip((hi - lo) / rng, 0.0, 1.0)
    keep = (frac > 0).all(axis=1)
    vals, lo, hi, frac = vals[keep], lo[keep], hi[keep], frac[keep]
    if len(vals) == 0:
        return np.zeros(d)
    w_total = frac.prod(axis=1)
    mean = float(vals @ w_total)
    total_var = float(vals**2 @ w_total) - mean**2
    if total_var <= 1e-12:
        return np.zeros(d)
    single = np.zeros(d)
    for i in range(d):
        cuts = np.unique(np.concatenate([[lower[i], upper[i]], lo[:, i], hi[:, i]]))
        cuts = cuts[(cuts >= lower[i]) & (cuts <= upper[i])]
        a, b = cuts[:-1], cuts[1:]
        mids = (a + b) / 2.0
        w_not_i = w_total / frac[:, i]
        cover = (lo[:, i][None, :] <= mids[:, None]) & (mids[:, None] < hi[:, i][None, :])
        f_i = cover @ (vals * w_not_i) - mean
        w_int = (b - a) / max(upper[i] - lower[i], 1e-300)
        single[i] = float(w_int @ f_i**2) / total_var
    return single


@st.composite
def _tree_case(draw):
    """A fitted tree: data with repeated values, some of it outside the
    unit cube, so that splits can fall outside it too."""
    n, d = draw(st.integers(2, 40)), draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    spill = draw(st.sampled_from([0.0, 0.3]))
    X = rng.uniform(-spill, 1.0 + spill, (n, d)).round(draw(st.integers(0, 3)))
    y = rng.normal(size=n).round(draw(st.integers(0, 3)))
    max_depth = draw(st.integers(0, 6))
    msl = draw(st.integers(1, 3))
    max_features = draw(st.one_of(st.none(), st.integers(1, d)))
    subsets = None
    if max_features is not None and max_features < d:
        subsets = draw_subsets([seed], d, max_features, min(2**max_depth - 1, n - 1))[0]
    return _fit_tree(X, y, max_depth, msl, subsets), d


class TestExactness:
    @settings(max_examples=300, deadline=None)
    @given(_tree_case())
    def test_equals_per_dimension_reference(self, case):
        tree, d = case
        got = _importances(tree, d)[0]
        assert np.array_equal(got, _reference_tree_importance(tree, np.zeros(d), np.ones(d)))
        unsplit = np.setdiff1d(np.arange(d), tree.feature)
        assert np.all(got[unsplit] == 0.0)

    def test_forest_on_refit_shaped_data(self):
        """30 dims, 16 trees of depth 5 on 10 features per node: the
        sub-space refit's forest, where most dimensions are unsplit."""
        rng = np.random.default_rng(4)
        X = rng.random((25, 30))
        y = X[:, 0] * 3 + rng.normal(size=25)
        forest = RandomForestRegressor(n_estimators=16, max_depth=5, max_features=10,
                                       seed=0).fit(X, y)
        lower, upper = np.zeros(30), np.ones(30)
        ref = np.array([_reference_tree_importance(t, lower, upper)
                        for t in _trees(forest.stack)])
        got = fanova_importance(forest, 30)
        assert np.array_equal(got, ref.mean(axis=0))
        split = np.unique(np.concatenate([t.feature for t in _trees(forest.stack)]))
        assert np.all(got[np.setdiff1d(np.arange(30), split)] == 0.0)
