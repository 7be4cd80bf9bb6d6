"""Unit tests for the mixed-kernel Gaussian process surrogate."""
import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from repro.core import gp as gp_module
from repro.core.config_space import ConfigSpace
from repro.core.gp import _JITTER, GaussianProcess, _matern52, _pairwise_sq, mixed_kernel


def _numeric_mask(d):
    return np.zeros(d, dtype=bool)


def _k(A, B, cat_mask, ls=0.5):
    """The mixed kernel at one lengthscale."""
    return mixed_kernel(A, B, cat_mask, [ls])[0]


class TestKernel:
    def test_self_similarity_is_one(self):
        X = np.random.default_rng(0).random((5, 3))
        assert np.allclose(np.diag(_k(X, X, _numeric_mask(3))), 1.0)

    def test_symmetry(self):
        X = np.random.default_rng(0).random((6, 3))
        K = _k(X, X, _numeric_mask(3))
        assert np.allclose(K, K.T)

    def test_decay_with_distance(self):
        a = np.array([[0.0]])
        vals = [_k(a, np.array([[x]]), _numeric_mask(1))[0, 0] for x in (0.0, 0.3, 0.9)]
        assert vals[0] > vals[1] > vals[2]

    def test_psd(self):
        X = np.random.default_rng(1).random((20, 4))
        eig = np.linalg.eigvalsh(_k(X, X, _numeric_mask(4)))
        assert eig.min() > -1e-8

    def test_hamming_on_categoricals(self):
        mask = np.array([False, True])
        a = np.array([[0.5, 0.0]])
        same = np.array([[0.5, 0.0]])
        diff = np.array([[0.5, 1.0]])
        assert _k(a, same, mask)[0, 0] > _k(a, diff, mask)[0, 0]

    def test_datasize_factor(self):
        # rows one column wider than the mask carry the datasize
        a = np.array([[0.5, 0.2]])
        near = np.array([[0.5, 0.25]])
        far = np.array([[0.5, 0.9]])
        assert _k(a, near, _numeric_mask(1))[0, 0] > _k(a, far, _numeric_mask(1))[0, 0]

    def test_rows_of_different_widths_raise(self):
        # a datasize column on one side only is an error, not ignored
        X = np.random.default_rng(0).random((4, 3))
        for A, B in ((X, X[:, :2]), (X[:, :2], X)):
            with pytest.raises(ValueError, match="width"):
                mixed_kernel(A, B, _numeric_mask(2), [0.5])
        with pytest.raises(ValueError, match="width"):
            GaussianProcess(_numeric_mask(2)).fit(X, X[:, 0]).predict(X[:, :2])

    def test_matern52_at_zero(self):
        assert _matern52(np.array([0.0]))[0] == pytest.approx(1.0)


class TestGP:
    def _fit(self, f, n=25, d=2, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.random((n, d))
        y = f(X)
        gp = GaussianProcess(_numeric_mask(d)).fit(X, y)
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
        gp = GaussianProcess(_numeric_mask(2)).fit(X, y)
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
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gp_module, "NOISE_GRID", (1e-4,))
            mu, _ = GaussianProcess(_numeric_mask(2)).fit(X, y).predict(X)
        assert np.max(np.abs(mu - y)) <= 1e-2 * y.std() + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 30),
           st.floats(0.15, 5.0), st.booleans())
    def test_kernel_prior_variance_is_one(self, seed, n, d, ls, datasize):
        rng = np.random.default_rng(seed)
        cat_mask = rng.random(d) < 0.3
        X = rng.random((n, d + datasize))
        X[:, :d][:, cat_mask] = np.rint(X[:, :d][:, cat_mask] * 2) / 2
        np.testing.assert_allclose(_k(X, X, cat_mask, ls).diagonal(), 1.0, rtol=0, atol=1e-12)
        for x in X:
            assert _k(x[None], x[None], cat_mask, ls)[0, 0] == pytest.approx(1.0, rel=0, abs=1e-12)


def test_predict_std_matches_full_prior_diagonal():
    # predict() takes k(x, x) = 1 instead of building kernel(X, X)
    space, rng = ConfigSpace(), np.random.default_rng(3)

    def rows(n):
        _, U = space.snap(rng.random((n, space.dim)))
        return np.concatenate([U, rng.random((n, 1))], axis=1)

    X, Xs = rows(40), rows(300)
    gp = GaussianProcess(space.cat_mask).fit(X, rng.normal(size=40))
    for Q in (Xs, X):
        _, sd = gp.predict(Q)
        v = np.linalg.solve(gp._L, _k(Q, gp.basis.X, space.cat_mask, gp.lengthscale).T)
        prior = _k(Q, Q, space.cat_mask, gp.lengthscale).diagonal()
        var = np.clip(prior + gp.noise - (v**2).sum(0), 1e-12, None)
        np.testing.assert_allclose(sd, np.sqrt(var) * gp._y_std, rtol=1e-12, atol=0)


def _reference_kernel(cat_mask, ls, A, B):
    """Matérn52 × Hamming × SE at lengthscale ``ls``, one matrix; the
    Hamming decay is half the categorical count, at least 0.5, and the
    SE factor is taken over the columns after the mask's."""
    d = len(cat_mask)
    num = ~cat_mask
    K = _matern52(np.sqrt(_pairwise_sq(A[:, :d][:, num], B[:, :d][:, num])) / max(ls, 1e-6))
    if cat_mask.any():
        Ac, Bc = A[:, :d][:, cat_mask], B[:, :d][:, cat_mask]
        mism = (np.abs(Ac[:, None, :] - Bc[None, :, :]) > 1e-9).sum(axis=2)
        K = K * np.exp(-mism / max(cat_mask.sum() / 2.0, 0.5))
    if A.shape[1] > d:
        K = K * np.exp(-_pairwise_sq(A[:, d:], B[:, d:]) / (2.0 * max(ls, 1e-6) ** 2))
    return K


def _reference_fit(gp, X, y):
    """``fit``'s grid search with one kernel built per grid point:
    (lengthscale, noise, L, alpha) of the best point."""
    z = (y - y.mean()) / (y.std() or 1.0)
    dim_scale = max(np.sqrt((~gp.cat_mask).sum() / 2.0), 1.0)
    best = (-np.inf, None)
    for ls in gp_module.LS_GRID + tuple(g * dim_scale for g in gp_module.LS_GRID):
        for nz in gp_module.NOISE_GRID:
            K = _reference_kernel(gp.cat_mask, ls, X, X) + (nz + _JITTER) * np.eye(len(X))
            try:
                L = np.linalg.cholesky(K)
            except np.linalg.LinAlgError:
                continue
            a = np.linalg.solve(L.T, np.linalg.solve(L, z))
            lml = -0.5 * z @ a - np.log(np.diag(L)).sum() - 0.5 * len(X) * np.log(2 * np.pi)
            if lml > best[0]:
                best = (lml, (ls, nz, L, a))
    return best[1]


def _mixed_rows(rng, n, d, cat_mask):
    """``n`` unit rows over ``d`` dims (categoricals on {0, 0.5, 1}) plus
    a datasize column."""
    X = rng.random((n, d + 1))
    X[:, :d][:, cat_mask] = np.rint(X[:, :d][:, cat_mask] * 2) / 2
    return X


def _assert_fit_equals_reference(gp, X, y):
    ls, nz, L, a = _reference_fit(gp, X, y)
    assert (gp.lengthscale, gp.noise) == (ls, nz)
    assert np.array_equal(gp._L, L) and np.array_equal(gp._alpha, a)


class TestKernelStackExact:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(1, 12),
           st.lists(st.floats(1e-7, 5.0), min_size=1, max_size=8))
    def test_slices_equal_scalar_kernel(self, seed, n, d, lengthscales):
        rng = np.random.default_rng(seed)
        cat_mask = rng.random(d) < 0.3
        X, Q = _mixed_rows(rng, n, d, cat_mask), _mixed_rows(rng, 7, d, cat_mask)
        for A, B in ((X, X), (Q, X)):
            stack = mixed_kernel(A, B, cat_mask, lengthscales)
            assert stack.shape == (len(lengthscales), len(A), len(B))
            for K, ls in zip(stack, lengthscales):
                assert np.array_equal(K, _reference_kernel(cat_mask, ls, A, B))
                assert np.array_equal(_k(A, B, cat_mask, ls), K)

    # categorical values on the grid, within the 1e-9 tolerance of it,
    # 2e-9 off it, and a negative zero
    _CAT_VALUES = (0.0, -0.0, 0.5, 1.0, 0.5 + 4e-10, 0.5 - 4e-10, 1.0 - 4e-10, 4e-10,
                   0.5 + 2e-9, 0.5 - 2e-9, 2e-9, 1.0 - 2e-9)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 12),
           st.integers(1, 10), st.booleans())
    @example(seed=0, m=1, n=1, d=3, all_cat=False)
    @example(seed=1, m=1, n=9, d=4, all_cat=True)
    @example(seed=2, m=9, n=1, d=4, all_cat=False)
    def test_hamming_count_equals_broadcast(self, seed, m, n, d, all_cat):
        """The one-product mismatch count equals the broadcast one of
        ``_reference_kernel`` bit for bit, at the 1e-9 tolerance's edges
        and for query values that B's column lacks."""
        rng = np.random.default_rng(seed)
        cat_mask = np.ones(d, bool) if all_cat else rng.random(d) < 0.6
        cat_mask[0] = True
        values = np.array(self._CAT_VALUES)
        A, B = rng.random((m, d + 1)), rng.random((n, d + 1))
        for j in np.flatnonzero(cat_mask):
            # B's column draws from a subset, so A meets values B lacks
            B[:, j] = rng.choice(rng.choice(values, rng.integers(1, 4)), n)
            A[:, j] = rng.choice(values, m)
        for ls, K in zip((0.3, 1.7), mixed_kernel(A, B, cat_mask, (0.3, 1.7))):
            assert np.array_equal(K, _reference_kernel(cat_mask, ls, A, B))
        assert np.array_equal(_k(B, B, cat_mask, 0.9), _reference_kernel(cat_mask, 0.9, B, B))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(1, 12),
           st.integers(0, 10))
    def test_fit_equals_scalar_grid_loop(self, seed, n, d, repeats):
        # online histories repeat configs (a served incumbent): repeated
        # rows make the low-noise grid points near-singular
        rng = np.random.default_rng(seed)
        cat_mask = rng.random(d) < 0.3
        X = _mixed_rows(rng, n, d, cat_mask)
        X = np.concatenate([X, X[rng.integers(0, n, repeats)]])
        y = rng.normal(size=len(X)) * 10.0 ** rng.integers(-3, 4)
        gp = GaussianProcess(cat_mask).fit(X, y)
        _assert_fit_equals_reference(gp, X, y)
        # owned arrays, not views into the grid's stack: the fit keeps
        # no stack alive, and a view may round differently
        assert gp._L.flags.owndata and gp._alpha.flags.owndata

    def test_one_stacked_cholesky_per_fit(self, monkeypatch):
        shapes = []
        cholesky = np.linalg.cholesky

        def counted(K):
            shapes.append(K.shape)
            return cholesky(K)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        X = np.random.default_rng(2).random((12, 3))
        GaussianProcess(_numeric_mask(3)).fit(X, X.sum(1))
        assert shapes == [(2 * len(gp_module.LS_GRID) * len(gp_module.NOISE_GRID), 12, 12)]

    def test_skips_only_the_grid_points_that_fail(self, monkeypatch):
        # smooth noiseless data: the best point has noise below 1e-2
        rng = np.random.default_rng(7)
        X = rng.random((20, 2))
        y = np.sin(3 * X[:, 0]) + X[:, 1]
        assert GaussianProcess(_numeric_mask(2)).fit(X, y).noise < 1e-2
        cholesky = np.linalg.cholesky
        ndims = []

        def fail_low_noise(K):
            # a matrix fails if its noise is below 1e-2; like NumPy, a
            # stack fails as a whole if any of its matrices does
            ndims.append(K.ndim)
            diagonals = np.diagonal(K, axis1=-2, axis2=-1)
            if (diagonals.min(axis=-1) < 1.0 + 1e-2).any():
                raise np.linalg.LinAlgError("not positive definite")
            return cholesky(K)

        monkeypatch.setattr(np.linalg, "cholesky", fail_low_noise)
        gp = GaussianProcess(_numeric_mask(2)).fit(X, y)
        n_grid = 2 * len(gp_module.LS_GRID) * len(gp_module.NOISE_GRID)
        assert ndims == [3] + [2] * n_grid
        assert gp.noise >= 1e-2
        _assert_fit_equals_reference(gp, X, y)


def _read_only(A):
    A = np.array(A)
    A.flags.writeable = False
    return A


def _pair_case(seed, scaled):
    """Mixed rows with the datasize column and repeated rows, and two
    target vectors on scales 1e-3 … 1e3; with ``scaled`` the second is
    the first times a power of two, so both pick the same grid point."""
    rng = np.random.default_rng(seed)
    n, d, repeats = rng.integers(1, 31), rng.integers(1, 13), rng.integers(0, 11)
    cat_mask = rng.random(d) < 0.3
    X = _mixed_rows(rng, n, d, cat_mask)
    X = np.concatenate([X, X[rng.integers(0, n, repeats)]])
    y_f = rng.normal(size=len(X)) * 10.0 ** rng.integers(-3, 4)
    y_t = y_f * 2.0 ** rng.integers(-8, 9) if scaled else \
        rng.normal(size=len(X)) * 10.0 ** rng.integers(-3, 4)
    Q = np.concatenate([_mixed_rows(rng, 20, d, cat_mask), X])
    return cat_mask, X, y_f, y_t, _read_only(Q)


def _shared_case(gp_f, gp_t):
    """Which part of the posterior the pair shares."""
    if (gp_f.lengthscale, gp_f.noise) == (gp_t.lengthscale, gp_t.noise):
        return "same grid point"
    if gp_f.lengthscale == gp_t.lengthscale:
        return "same lengthscale"
    return "different lengthscales"


def _assert_same_gp(a, b):
    assert (a.lengthscale, a.noise, a._y_mean, a._y_std) == \
        (b.lengthscale, b.noise, b._y_mean, b._y_std)
    assert np.array_equal(a._L, b._L) and np.array_equal(a._alpha, b._alpha)


class TestMemoizedParts:
    """The lengthscale-free parts a basis memoizes for a read-only query
    give ``mixed_kernel``'s array, and the reference kernel's, at every
    grid lengthscale, bit for bit; they are built once per query."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["none", "constant", "varying"]),
           st.sampled_from(["constant", "varying"]), st.integers(0, 6))
    @example(seed=0, datasize="constant", basis_datasize="varying", repeats=3)
    @example(seed=1, datasize="varying", basis_datasize="constant", repeats=0)
    @example(seed=2, datasize="none", basis_datasize="constant", repeats=2)
    def test_parts_give_the_kernel_at_every_grid_lengthscale(self, seed, datasize,
                                                             basis_datasize, repeats):
        rng = np.random.default_rng(seed)
        n, d, m = rng.integers(1, 25), rng.integers(1, 13), rng.integers(1, 40)
        cat_mask = rng.random(d) < 0.3
        X, Q = _mixed_rows(rng, n, d, cat_mask), _mixed_rows(rng, m, d, cat_mask)
        if basis_datasize == "constant":
            X[:, d] = X[0, d]
        X = np.concatenate([X, X[rng.integers(0, n, repeats)]])  # repeated basis rows
        if datasize == "none":
            X, Q = X[:, :d], Q[:, :d]
        elif datasize == "constant":  # as every candidate of one pick
            Q[:, d] = rng.choice([Q[0, d], X[0, d]])
        Q = _read_only(Q)
        gp_f = GaussianProcess(cat_mask).fit(X, rng.normal(size=len(X)))
        GaussianProcess(cat_mask).fit(gp_f.basis, rng.normal(size=len(X)))
        basis = gp_f.basis
        parts = None
        for (ls, nz), L in zip(basis.grid, basis.L):
            Ks, explained = basis.posterior(Q, ls, nz, L)
            parts = parts or basis._memo["parts"]
            assert basis._memo["parts"] is parts  # built once for the query
            assert np.array_equal(Ks, mixed_kernel(Q, X, cat_mask, [ls])[0])
            assert np.array_equal(Ks, _reference_kernel(cat_mask, ls, Q, X))
            v = np.linalg.solve(L, _reference_kernel(cat_mask, ls, Q, X).T)
            assert np.array_equal(explained, (v**2).sum(0))
        if datasize == "none":
            assert parts[2] is None
        else:  # the datasize part is one row for a constant column
            assert len(parts[2]) == (1 if datasize == "constant" else m)


class TestPosteriorBasis:
    #: _pair_case seeds whose independent targets fall into each case
    CASE_SEEDS = {"same grid point": 0, "same lengthscale": 5, "different lengthscales": 1}

    def test_case_seeds_cover_every_case(self):
        for case, seed in self.CASE_SEEDS.items():
            cat_mask, X, y_f, y_t, _ = _pair_case(seed, scaled=False)
            gp_f = GaussianProcess(cat_mask).fit(X, y_f)
            gp_t = GaussianProcess(cat_mask).fit(gp_f.basis, y_t)
            assert _shared_case(gp_f, gp_t) == case

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    @example(seed=CASE_SEEDS["same grid point"], scaled=False)
    @example(seed=CASE_SEEDS["same lengthscale"], scaled=False)
    @example(seed=CASE_SEEDS["different lengthscales"], scaled=False)
    def test_pair_equals_two_lone_gps(self, seed, scaled):
        cat_mask, X, y_f, y_t, Q = _pair_case(seed, scaled)
        gp_f = GaussianProcess(cat_mask).fit(X, y_f)
        gp_t = GaussianProcess(cat_mask).fit(gp_f.basis, y_t)
        assert gp_t.basis is gp_f.basis and len(gp_f.basis) == len(X)
        event(_shared_case(gp_f, gp_t))
        lone_f = GaussianProcess(cat_mask).fit(X, y_f)
        lone_t = GaussianProcess(cat_mask).fit(X, y_t)
        _assert_same_gp(gp_f, lone_f)
        _assert_same_gp(gp_t, lone_t)
        # the runtime GP predicts first in propose(); then the objective
        # GP is served from the memo where it shares the posterior
        for gp, lone in ((gp_t, lone_t), (gp_f, lone_f), (gp_t, lone_t)):
            for got, want in zip(gp.predict(Q), lone.predict(Q)):
                assert np.array_equal(got, want)

    def test_partial_cholesky_failure_leaves_both_on_survivors(self, monkeypatch):
        rng = np.random.default_rng(7)
        X = rng.random((20, 2))
        y_f, y_t = np.sin(3 * X[:, 0]) + X[:, 1], rng.normal(size=20)
        cholesky = np.linalg.cholesky

        def fail_low_noise(K):
            # a matrix fails if its noise is below 1e-2; like NumPy, a
            # stack fails as a whole if any of its matrices does
            diagonals = np.diagonal(K, axis1=-2, axis2=-1)
            if (diagonals.min(axis=-1) < 1.0 + 1e-2).any():
                raise np.linalg.LinAlgError("not positive definite")
            return cholesky(K)

        monkeypatch.setattr(np.linalg, "cholesky", fail_low_noise)
        gp_f = GaussianProcess(_numeric_mask(2)).fit(X, y_f)
        gp_t = GaussianProcess(_numeric_mask(2)).fit(gp_f.basis, y_t)
        assert all(nz >= 1e-2 for _, nz in gp_f.basis.grid)
        for gp, y in ((gp_f, y_f), (gp_t, y_t)):
            assert gp.noise >= 1e-2
            _assert_fit_equals_reference(gp, X, y)

    def test_memo_serves_only_the_same_read_only_query(self, monkeypatch):
        X = np.random.default_rng(3).random((12, 3))
        gp_f = GaussianProcess(_numeric_mask(3)).fit(X, X.sum(1))
        gp_t = GaussianProcess(_numeric_mask(3)).fit(gp_f.basis, 4.0 * X.sum(1))
        assert (gp_f.lengthscale, gp_f.noise) == (gp_t.lengthscale, gp_t.noise)
        parts, stack, solve = gp_module.KernelRows.parts, gp_module._kernels, np.linalg.solve
        calls = []

        def counted_parts(*args):
            calls.append("parts")
            return parts(*args)

        def counted_stack(*args):
            calls.append("stack")
            return stack(*args)

        def counted_solve(*args):
            calls.append("solve")
            return solve(*args)

        monkeypatch.setattr(gp_module.KernelRows, "parts", counted_parts)
        monkeypatch.setattr(gp_module, "_kernels", counted_stack)
        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        Q = _read_only(np.random.default_rng(4).random((9, 3)))
        want = gp_t.predict(Q)
        assert calls == ["parts", "stack", "solve"]
        for got in (gp_f.predict(Q)[1] * 4.0, gp_t.predict(Q)[1]):
            assert np.array_equal(got, want[1])
        assert calls == ["parts", "stack", "solve"]  # both served from the memo
        for query in (Q.copy(), _read_only(Q)):  # writeable; another array
            calls.clear()
            for got in (gp_f.predict(query)[1] * 4.0, gp_t.predict(query)[1]):
                assert np.array_equal(got, want[1])
            assert calls == (["parts", "stack", "solve"] * 2 if query.flags.writeable
                             else ["parts", "stack", "solve"])
