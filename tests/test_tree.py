"""Unit tests for the CART regression tree substrate."""
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.fanova import _leaf_boxes
from repro.ml.forest import RandomForestRegressor, draw_subsets
from repro.ml.gbm import LEARNING_RATE, GradientBoostedRegressor
from repro.ml.tree import TreeGrower


def _fit_tree(X, y, max_depth=12, msl=1, subsets=None):
    """One tree grown on every row of ``(X, y)``, reading the ``(k, m)``
    feature ``subsets`` or every feature: a stack of one tree."""
    subsets = None if subsets is None else subsets[None]
    return TreeGrower(X, np.arange(len(y))[None]).fit(y, max_depth, msl, subsets)[0]


def _predict(tree, X):
    """A one-tree stack's predictions."""
    return tree.leaf_values(X)[0]


def _trees(stack):
    """Each tree of ``stack`` on its own: its slice of the node arrays,
    with child indices counted from its root."""
    ends = [*stack.roots[1:].tolist(), len(stack.feature)]
    for a, b in zip(stack.roots.tolist(), ends):
        yield SimpleNamespace(feature=stack.feature[a:b], threshold=stack.threshold[a:b],
                              left=stack.left[a:b] - a, right=stack.right[a:b] - a,
                              value=stack.value[a:b])


def _xor_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 2))
    y = ((X[:, 0] > 0.5) ^ (X[:, 1] > 0.5)).astype(float)
    return X, y


class TestFitPredict:
    def test_constant_target(self):
        X = np.random.default_rng(0).random((50, 3))
        t = _fit_tree(X, np.full(50, 7.0))
        assert np.allclose(_predict(t, X), 7.0)

    def test_perfect_split_1d(self):
        X = np.array([[0.1], [0.2], [0.8], [0.9]])
        y = np.array([1.0, 1.0, 5.0, 5.0])
        t = _fit_tree(X, y)
        assert np.allclose(_predict(t, X), y)
        assert np.allclose(_predict(t, np.array([[0.0], [1.0]])), [1.0, 5.0])

    def test_xor_interaction(self):
        X, y = _xor_data()
        t = _fit_tree(X, y, max_depth=4)
        # XOR needs depth >= 2; a full CART recovers it almost exactly
        assert np.mean((_predict(t, X) - y) ** 2) < 0.05

    def test_max_depth_limits_structure(self):
        X, y = _xor_data()
        stump = _fit_tree(X, y, max_depth=0)
        assert np.allclose(_predict(stump, X), y.mean())

    def test_min_samples_leaf(self):
        X = np.arange(10, dtype=float)[:, None]
        y = np.arange(10, dtype=float)
        t = _fit_tree(X, y, msl=5)
        # only one split possible (5|5)
        preds = np.unique(_predict(t, X))
        assert len(preds) <= 2

    def test_deterministic_given_rng(self):
        X, y = _xor_data()
        subsets = draw_subsets([3], 2, 1, len(y) - 1)[0]
        t1 = _fit_tree(X, y, subsets=subsets)
        t2 = _fit_tree(X, y, subsets=subsets)
        grid = np.random.default_rng(1).random((50, 2))
        assert np.array_equal(_predict(t1, grid), _predict(t2, grid))

    def test_exhausted_subsets_raise(self):
        X, y = _xor_data()
        with pytest.raises(ValueError, match="ran out"):
            _fit_tree(X, y, 4, subsets=draw_subsets([0], 2, 1, 2)[0])
        # a depth-4 tree searches for a split at most 2**4 - 1 times
        _fit_tree(X, y, 4, subsets=draw_subsets([0], 2, 1, 15)[0])

    def test_adjacent_values_split_between_them(self):
        """A midpoint that rounds up to the right value would send both
        rows left; the split keeps the left value as its threshold."""
        lo, hi = 1.0 + 2.0**-52, 1.0 + 2.0**-51
        assert (lo + hi) / 2.0 == hi
        t = _fit_tree(np.array([[lo], [hi]]), np.array([0.0, 1.0]))
        assert t.threshold[0] == lo and t.value.tolist() == [0.5, 0.0, 1.0]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=5, max_value=60), st.integers(min_value=0, max_value=10))
    def test_predictions_within_target_range(self, n, seed):
        rng = np.random.default_rng(seed)
        X = rng.random((n, 3))
        y = rng.normal(size=n)
        t = _fit_tree(X, y)
        p = _predict(t, rng.random((20, 3)))
        assert p.min() >= y.min() - 1e-9 and p.max() <= y.max() + 1e-9


def _boxes(tree, dim):
    """One tree's leaf values and boxes."""
    leaves, lo, hi = _leaf_boxes(tree, dim)
    return tree.value[leaves], lo, hi


class TestLeafBoxes:
    """The leaf boxes fANOVA reads off the node arrays."""

    @staticmethod
    def _nonempty(tree, dim):
        vals, lo, hi = _boxes(tree, dim)
        keep = (hi > lo).all(axis=1)
        return vals[keep], lo[keep], hi[keep]

    def test_boxes_partition_domain(self):
        X, y = _xor_data()
        t = _fit_tree(X, y, max_depth=3)
        _, lo, hi = _boxes(t, 2)
        vol = np.clip(hi - lo, 0.0, None).prod(axis=1).sum()
        assert vol == pytest.approx(1.0)

    def test_boxes_predict_consistent(self):
        X, y = _xor_data()
        t = _fit_tree(X, y, max_depth=4)
        vals, lo, hi = self._nonempty(t, 2)
        rng = np.random.default_rng(2)
        pts = rng.random((100, 2))
        preds = _predict(t, pts)
        for p, pred in zip(pts, preds):
            matching = ((lo <= p) & (p <= hi)).all(axis=1)
            assert np.any(vals[matching] == pred)

    def test_stump_single_box(self):
        t = _fit_tree(np.zeros((5, 2)), np.ones(5), max_depth=0)
        vals, lo, hi = _boxes(t, 2)
        assert vals.tolist() == [1.0]
        assert lo.tolist() == [[0.0, 0.0]] and hi.tolist() == [[1.0, 1.0]]

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 60), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_nonempty_boxes_tile_a_domain_inside_the_data(self, n, d, seed):
        """Split points can fall outside the unit cube when the data
        spreads wider: the non-empty boxes still tile it, and agree with
        predict."""
        rng = np.random.default_rng(seed)
        X = rng.uniform(-0.6, 1.6, (n, d)).round(1)
        t = _fit_tree(X, rng.normal(size=n))
        vals, lo, hi = self._nonempty(t, d)
        assert (hi - lo).prod(axis=1).sum() == pytest.approx(1.0)
        pts = rng.random((30, d))
        inside = (lo[None] < pts[:, None]) & (pts[:, None] <= hi[None])
        assert np.all(inside.all(axis=2).sum(axis=1) <= 1)
        for p, pred, box in zip(pts, _predict(t, pts), inside.all(axis=2)):
            assert np.all(vals[box] == pred)


def _walk(tree, X):
    """Predictions one row at a time, down the node arrays."""
    out = np.empty(len(X))
    for r, row in enumerate(X):
        node = 0
        while tree.feature[node] >= 0:
            f = tree.feature[node]
            node = tree.left[node] if row[f] <= tree.threshold[node] else tree.right[node]
        out[r] = tree.value[node]
    return out


@st.composite
def _predict_case(draw):
    """Training data with ties and query rows that include NaN, ±inf and
    values equal to the training values (so to split points' sides)."""
    n, d = draw(st.integers(1, 40)), draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    X = rng.random((n, d)).round(draw(st.integers(0, 2)))
    y = rng.normal(size=n)
    Q = np.concatenate([X, rng.random((draw(st.integers(0, 20)), d)) * 1.4 - 0.2])
    if draw(st.booleans()):
        Q[rng.random(Q.shape) < 0.1] = rng.choice([np.nan, np.inf, -np.inf])
    return X, y, Q, seed


class TestPredictExact:
    """The stacked walk equals the per-row walk for a tree, the forest's
    mean and the boosted trees' sum."""

    @settings(max_examples=100, deadline=None)
    @given(_predict_case(), st.integers(0, 8))
    def test_tree(self, case, max_depth):
        X, y, Q, seed = case
        t = _fit_tree(X, y, max_depth)
        assert np.array_equal(_predict(t, Q), _walk(t, Q))

    @settings(max_examples=50, deadline=None)
    @given(_predict_case(), st.integers(1, 12))
    def test_forest_mean(self, case, n_trees):
        X, y, Q, seed = case
        f = RandomForestRegressor(n_estimators=n_trees, max_depth=6, seed=seed % 1000).fit(X, y)
        ref = np.mean([_walk(t, Q) for t in _trees(f.stack)], axis=0)
        assert np.array_equal(f.predict(Q), ref)

    @settings(max_examples=50, deadline=None)
    @given(_predict_case(), st.integers(1, 30))
    def test_gbm_sum(self, case, n_trees):
        X, y, Q, seed = case
        m = GradientBoostedRegressor(n_estimators=n_trees, max_depth=3,
                                     min_samples_leaf=1).fit(X, y)
        ref = np.full(len(Q), m._init)
        for t in _trees(m.stack):
            ref += LEARNING_RATE * _walk(t, Q)
        assert np.array_equal(m.predict(Q), ref)


def _reference_gains(msl, X, y, feats):
    """Each feature of ``feats``, one at a time: its best valid cut's gain
    and threshold, or None without a valid cut."""
    n = len(y)
    base_sse = float(((y - y.mean()) ** 2).sum())
    found = []
    for f in feats:
        order = np.argsort(X[:, f], kind="stable")
        xs, ys = X[order, f], y[order]
        csum, csq = np.cumsum(ys), np.cumsum(ys**2)
        tot, totsq = csum[-1], csq[-1]
        idx = np.arange(1, n)
        valid = (xs[1:] > xs[:-1]) & (idx >= msl) & (n - idx >= msl)
        if not valid.any():
            found.append(None)
            continue
        nl = idx[valid].astype(np.float64)
        sl, sql = csum[:-1][valid], csq[:-1][valid]
        sse = (sql - sl**2 / nl) + ((totsq - sql) - (tot - sl) ** 2 / (n - nl))
        k = int(np.argmin(sse))
        i = idx[valid][k]
        found.append((base_sse - float(sse[k]), float((xs[i - 1] + xs[i]) / 2.0)))
    return found


def _reference_best_split(msl, X, y, feats):
    """The per-feature split search over ``feats``: the first feature whose
    gain beats the best so far (0 at the start) by more than 1e-12."""
    best_gain, best = 0.0, (-1, 0.0)
    for f, cut in zip(feats, _reference_gains(msl, X, y, feats)):
        if cut is not None and cut[0] > best_gain + 1e-12:
            best_gain, best = cut[0], (int(f), cut[1])
    return best


def _best_split(msl, X, y, feats):
    """The root's split of a depth-1 tree over ``feats`` (every column
    when None): the one split search a fit makes there."""
    t = _fit_tree(X, y, 1, msl, None if feats is None else feats[None])
    return int(t.feature[0]), float(t.threshold[0])


def _feats(d, max_features, seed):
    """A node's candidate features as the forest samples them."""
    if max_features is None or max_features >= d:
        return None
    return np.random.default_rng(seed).choice(d, size=max_features, replace=False)


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
        feats = _feats(X.shape[1], max_features, seed)
        ref = _reference_best_split(msl, X, y, range(X.shape[1]) if feats is None else feats)
        assert _best_split(msl, X, y, feats) == ref

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 40), st.integers(1, 6), st.integers(1, 3),
           st.integers(0, 2**32 - 1))
    def test_equals_per_feature_loop_on_distinct_values(self, n, d, msl, seed):
        """No ties anywhere, so that the leaf-size limit, not repeated
        values, decides which cuts are valid."""
        rng = np.random.default_rng(seed)
        X, y = rng.random((n, d)), rng.normal(size=n)
        assert _best_split(msl, X, y, None) == _reference_best_split(msl, X, y, range(d))


def _reference_tree(X, y, max_depth, msl, next_feats):
    """One tree grown node by node in preorder with the per-feature split
    search; ``next_feats()`` gives each search's candidate features."""
    nodes = []

    def build(Xn, yn, depth):
        i = len(nodes)
        nodes.append([-1, 0.0, i, i, yn.sum() / len(yn)])
        if depth >= max_depth or yn.max() == yn.min():
            return i
        feat, thr = _reference_best_split(msl, Xn, yn, next_feats())
        if feat < 0:
            return i
        go_left = Xn[:, feat] <= thr
        nodes[i][:2] = feat, thr
        nodes[i][2] = build(Xn[go_left], yn[go_left], depth + 1)
        nodes[i][3] = build(Xn[~go_left], yn[~go_left], depth + 1)
        return i

    build(X, y, 0)
    return [np.array(a) for a in zip(*nodes)]


def _reference_forest(X, y, n_estimators, max_depth, msl, max_features, seed):
    """The forest as it was built before the subsets were drawn up front:
    one ``rng.choice`` per split search, on each tree's own generator,
    and the per-feature split search."""
    n, d = X.shape
    rng = np.random.default_rng(seed)
    trees = []
    for _ in range(n_estimators):
        idx = rng.integers(0, n, size=n)
        tree_rng = np.random.default_rng(rng.integers(2**31))
        feats = (lambda: tree_rng.choice(d, size=max_features, replace=False)) \
            if max_features < d else (lambda: np.arange(d))
        trees.append(_reference_tree(X[idx], y[idx], max_depth, msl, feats))
    return trees


def _reference_gbm(X, y, n_estimators, max_depth, msl):
    """Boosting as it was done before the trees grew in lockstep: each
    stage's tree grown node by node over every feature, and its training
    predictions walked one row at a time."""
    pred, stages = np.full(len(y), float(y.mean())), []
    for _ in range(n_estimators):
        arrays = _reference_tree(X, y - pred, max_depth, msl, lambda: np.arange(X.shape[1]))
        pred += LEARNING_RATE * _walk(SimpleNamespace(**dict(zip(_FIELDS, arrays))), X)
        stages.append(arrays)
    return stages


_FIELDS = ("feature", "threshold", "left", "right", "value")


def _same_bits(tree, arrays):
    """The tree's node arrays equal ``arrays`` in dtype and every bit
    (so −0.0 and 0.0 differ)."""
    return all(got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
               for got, ref in zip((getattr(tree, f) for f in _FIELDS), arrays))


class TestBoostedBuild:
    @settings(max_examples=60, deadline=None)
    @given(_split_case(), st.integers(1, 8), st.integers(0, 4))
    def test_equals_sequential_reference(self, case, n_estimators, max_depth):
        """Level-by-level stages, and predictions taken from the rows'
        leaves, equal the node-by-node stages and walked predictions."""
        X, y, msl, _, _ = case
        model = GradientBoostedRegressor(n_estimators=n_estimators, max_depth=max_depth,
                                         min_samples_leaf=msl).fit(X, y)
        ref = _reference_gbm(X, y, n_estimators, max_depth, msl)
        for tree, arrays in zip(_trees(model.stack), ref, strict=True):
            assert _same_bits(tree, arrays)


class TestForestBuild:
    @settings(max_examples=100, deadline=None)
    @given(_split_case(), st.integers(1, 4), st.integers(0, 7))
    def test_equals_per_node_choice_builder(self, case, n_estimators, max_depth):
        """Ties, leaf sizes, ``max_features >= d`` and trees that stop
        early all read the subsets in the order the old per-node draws
        came."""
        X, y, msl, max_features, seed = case
        seed %= 2**31
        forest = RandomForestRegressor(n_estimators=n_estimators, max_depth=max_depth,
                                       min_samples_leaf=msl, max_features=max_features,
                                       seed=seed).fit(X, y)
        mf = max_features or max(1, X.shape[1] // 3)
        ref = _reference_forest(X, y, n_estimators, max_depth, msl, mf, seed)
        for tree, arrays in zip(_trees(forest.stack), ref, strict=True):
            assert _same_bits(tree, arrays)

    @settings(max_examples=12, deadline=None)
    @given(st.integers(129, 260), st.integers(1, 5), st.booleans(), st.integers(0, 2**31 - 1))
    def test_big_nodes_equal_per_node_builder(self, n, d, subsample, seed):
        """Nodes of 8+ and of 129+ rows, whose sums take both of NumPy's
        pairwise branches, over targets of mixed magnitude, in trees with
        and without feature subsets."""
        rng = np.random.default_rng(seed)
        X = rng.random((n, d)).round(2)
        y = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, n)
        mf = max(1, d - 1) if subsample else d
        forest = RandomForestRegressor(n_estimators=3, max_depth=6, max_features=mf,
                                       seed=seed).fit(X, y)
        ref = _reference_forest(X, y, 3, 6, 1, mf, seed)
        for tree, arrays in zip(_trees(forest.stack), ref, strict=True):
            assert _same_bits(tree, arrays)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(40, 120), st.integers(3, 6), st.integers(2, 4), st.integers(0, 2**31 - 1))
    def test_small_nodes_read_their_subset(self, n, d, msl, seed):
        """A node under 2·min_samples_leaf rows has no valid cut, yet it
        searches, so reads a subset, as in the per-node builder."""
        rng = np.random.default_rng(seed)
        X, y = rng.random((n, d)).round(1), rng.normal(size=n)
        forest = RandomForestRegressor(n_estimators=3, max_depth=8, min_samples_leaf=msl,
                                       max_features=d - 1, seed=seed).fit(X, y)
        ref = _reference_forest(X, y, 3, 8, msl, d - 1, seed)
        for tree, arrays in zip(_trees(forest.stack), ref, strict=True):
            assert _same_bits(tree, arrays)

    def test_exhausted_subsets_raise_in_lockstep(self):
        X, y = _xor_data()
        rows = np.stack([np.arange(len(y))] * 2)
        with pytest.raises(ValueError, match="ran out"):
            TreeGrower(X, rows).fit(y, 4, 1, draw_subsets([0, 1], 2, 1, 2))
        TreeGrower(X, rows).fit(y, 4, 1, draw_subsets([0, 1], 2, 1, 15))


def _isolating(ys, n=10):
    """``n`` rows and ``len(ys)`` binary features: feature ``j`` splits row
    ``j`` (target ``ys[j]``) off from the rest, whose targets are 0, so its
    gain grows with ``ys[j]``."""
    k = len(ys)
    X, y = np.zeros((n, k)), np.zeros(n)
    X[np.arange(k), np.arange(k)] = 1.0
    y[:k] = ys
    return X, y


def _gains(X, y):
    """Features 0 and 1's gains, as the sequential search scores them."""
    (g0, _), (g1, _) = _reference_gains(1, X, y, [0, 1])
    return g0, g1


def _near_tie(taken):
    """Rows whose feature 1 scores a gain above feature 0's, by more than
    1e-12 as the scan tests it (``g1 > g0 + 1e-12``) if ``taken``, else by
    less: the smallest step of row 1's target that gets there."""
    for k in range(1, 4096):
        X, y = _isolating([3.0, 3.0 + k * 2.0**-50])
        g0, g1 = _gains(X, y)
        if g1 > g0 and (g1 > g0 + 1e-12) == taken:
            return X, y
    raise AssertionError("no step gets there")


def _grower_equals_reference(X, y, max_depth, msl):
    """A tree and a boosted fit equal the node-by-node references to the bit."""
    tree = _fit_tree(X, y, max_depth, msl)
    assert _same_bits(tree, _reference_tree(X, y, max_depth, msl,
                                            lambda: np.arange(X.shape[1])))
    model = GradientBoostedRegressor(n_estimators=6, max_depth=max_depth,
                                     min_samples_leaf=msl).fit(X, y)
    for tree, arrays in zip(_trees(model.stack), _reference_gbm(X, y, 6, max_depth, msl),
                            strict=True):
        assert _same_bits(tree, arrays)


class TestNearTies:
    """Two features' gains tie or differ by about the scan's 1e-12: the
    grower takes the feature the sequential search takes."""

    def test_exactly_equal(self):
        X, y = _isolating([3.0, 3.0])
        assert _gains(X, y)[0] == _gains(X, y)[1]
        assert _best_split(1, X, y, None)[0] == 0  # the first of equal gains
        _grower_equals_reference(X, y, 2, 1)

    def test_within_1e12(self):
        X, y = _near_tie(taken=False)
        assert _best_split(1, X, y, None)[0] == 0  # the higher gain is not taken
        _grower_equals_reference(X, y, 2, 1)
        _grower_equals_reference(X[:, ::-1].copy(), y, 2, 1)  # the higher gain first

    def test_just_above_1e12(self):
        X, y = _near_tie(taken=True)
        assert np.diff(_gains(X, y))[0] < 2e-12
        assert _best_split(1, X, y, None)[0] == 1
        _grower_equals_reference(X, y, 2, 1)
        _grower_equals_reference(X[:, ::-1].copy(), y, 2, 1)

    def test_repeated_column(self):
        """A column equal to an earlier one ties it at every node; the
        grower leaves it out of its searches and still takes the first."""
        X, y = _isolating([3.0, 2.0, 1.0])
        assert not TreeGrower(X, np.arange(len(y))[None]).repeats
        X = np.c_[X[:, [0, 1]], X[:, 0], X[:, 2], X[:, 1]]
        assert TreeGrower(X, np.arange(len(y))[None]).repeats
        _grower_equals_reference(X, y, 3, 1)


def _pair_rows(n_tasks, d, seed):
    """The meta-learner's training rows: every ordered pair of tasks, both
    orders of a pair alike, and their shared distance."""
    rng = np.random.default_rng(seed)
    meta = np.log1p(rng.gamma(1.0, 5.0, (n_tasks, d))).round(2)
    dist = rng.random((n_tasks, n_tasks)).round(3)
    pairs = [(a, b) for a in range(n_tasks) for b in range(n_tasks) if a != b]
    X = np.array([np.r_[np.abs(meta[a] - meta[b]), (meta[a] + meta[b]) / 2.0] for a, b in pairs])
    return X, np.array([dist[min(a, b), max(a, b)] for a, b in pairs])


class _CountingDict(dict):
    """A dict that counts the lookups that find their key."""

    hits = 0

    def get(self, key, default=None):
        self.hits += key in self
        return super().get(key, default)


class TestReusedState:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(3, 5), st.integers(2, 20), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_boosting_stages_reuse_row_sets(self, n_tasks, d, max_depth, seed):
        """Pair rows come twice and many columns order them alike, so the
        stages meet few row sets: the grower keeps each pass's state and
        reuses it, and every stage equals the node-by-node reference."""
        X, y = _pair_rows(n_tasks, d, seed)
        model = GradientBoostedRegressor(n_estimators=20, max_depth=max_depth).fit(X, y)
        for tree, arrays in zip(_trees(model.stack), _reference_gbm(X, y, 20, max_depth, 2),
                                strict=True):
            assert _same_bits(tree, arrays)
        grower, pred = TreeGrower(X, np.arange(len(y))[None]), np.full(len(y), y.mean())
        grower.layouts = _CountingDict()
        for _ in range(20):
            pred += LEARNING_RATE * grower.fit(y - pred, max_depth, 2)[1][0]
        assert grower.layouts.hits >= 19  # at least every later stage's root pass

    def test_one_node_rounds(self):
        """A chain: each split takes the largest target off alone, so every
        round holds one node, searched without padding."""
        X = np.arange(9.0)[:, None] * [1.0, -1.0]
        y = 10.0 ** np.arange(9) - 1.0
        t = _fit_tree(X, y, 6, 1)
        assert (t.feature >= 0).sum() == 6 and t.depth == 6
        _grower_equals_reference(X, y, 6, 1)
