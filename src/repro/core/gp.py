"""Gaussian-process surrogate with mixed kernels (Eq. 2 and Eq. 4).

The paper models objective/constraint responses with a GP whose kernel
mixes a Matérn-5/2 over numerical parameters, a Hamming kernel over
categorical parameters, and a squared-exponential over the (log) data
size appended as an extra input — this is how dynamic workloads are
supported online. Inputs live in the unit cube (see
:class:`repro.core.config_space.ConfigSpace`); targets are standardized
internally, so the kernel amplitude is fixed at 1. The shared numeric
lengthscale (also the datasize SE lengthscale) and the noise are
grid-searched by maximizing the exact log marginal likelihood —
observation counts are tiny online (≤ tens), so a coarse grid is both
robust and fast, and needs no scipy; the categorical decay is set from
the categorical-dimension count. The kernel is one function of its two
sets of rows, :func:`mixed_kernel`; the rows carry the datasize column
exactly when they are wider than the categorical mask. It builds the
kernels of several lengthscales over one set of distances and mismatch
counts (one matrix product), and is called once for all grid
lengthscales. The kernels of all grid points, lengthscale by noise, are
then factorized with one stacked Cholesky; only when that raises (one
matrix is not positive definite) are the points factorized one by one,
to keep the ones that succeed. Those factors depend on the rows only,
so they live in a :class:`PosteriorBasis` that every GP fitted on the
same rows shares (the objective and log-runtime GPs of one iteration):
each GP adds its own standardization, two stacked solves for ``alpha``
and its grid choice. The basis also memoizes, per read-only query, the
cross-kernel and the explained variance the GPs' predicts have in
common (Rasmussen & Williams 2006, Alg. 2.1: the targets enter the
posterior only through ``alpha``).
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

_JITTER = 1e-8
#: The hyperparameter grid ``fit`` searches: white-noise variances and
#: numeric lengthscales (each also taken times the dimension scale).
NOISE_GRID = (1e-4, 1e-3, 1e-2, 1e-1)
LS_GRID = (0.15, 0.3, 0.6, 1.2)


def _matern52(d: np.ndarray) -> np.ndarray:
    """Matérn-5/2 of scaled distances ``d``."""
    s = np.sqrt(5.0) * d
    return (1.0 + s + s**2 / 3.0) * np.exp(-s)


def _pairwise_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.maximum(
        (a**2).sum(1)[:, None] + (b**2).sum(1)[None, :] - 2.0 * a @ b.T, 0.0
    )


def mixed_kernel(A: np.ndarray, B: np.ndarray, cat_mask: np.ndarray,
                 lengthscales: Sequence[float]) -> np.ndarray:
    """Product kernel Matérn52(numeric) × Hamming(categorical) × SE(size)
    between the rows ``A`` and ``B`` at each lengthscale, as one
    ``(len(lengthscales), len(A), len(B))`` array.

    ``cat_mask`` marks the categorical dims of the config vector. Rows
    wider than it carry the data size in their last column, which the
    SE factor takes at the numeric lengthscale. The Hamming decay scales
    with the categorical-dimension count, or every config pair would be
    "far". Raises ``ValueError`` when ``A`` and ``B`` differ in width.
    """
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"kernel rows differ in width: {A.shape[1]} and {B.shape[1]}")
    d = len(cat_mask)
    num = ~cat_mask
    An, Bn = A[:, :d][:, num], B[:, :d][:, num]
    scale = np.array([max(ls, 1e-6) for ls in lengthscales])[:, None, None]
    K = _matern52(np.sqrt(_pairwise_sq(An, Bn)) / scale)
    n_cat = np.count_nonzero(cat_mask)
    if n_cat:
        Ac, Bc = A[:, :d][:, cat_mask], B[:, :d][:, cat_mask]
        # the mismatch count as one product: each B entry equals one
        # distinct value of its column, so a one-hot over those adds the
        # same 0/1s as a broadcast over B (small integer sums are exact)
        Bs = np.sort(Bc, axis=0).T
        first = np.ones(Bs.shape, bool)
        first[:, 1:] = Bs[:, 1:] != Bs[:, :-1]
        c, vals = np.nonzero(first)[0], Bs[first]
        onehot = (Bc.T[c] == vals[:, None]).astype(np.float64)
        mism = (np.abs(Ac[:, c] - vals) > 1e-9).astype(np.float64) @ onehot
        K = K * np.exp(-mism / max(n_cat / 2.0, 0.5))
    if A.shape[1] > d:
        two_sq = np.array([2.0 * max(ls, 1e-6) ** 2 for ls in lengthscales])
        K = K * np.exp(-_pairwise_sq(A[:, d:], B[:, d:]) / two_sq[:, None, None])
    return K


class PosteriorBasis:
    """What the GPs fitted on one set of rows ``X`` share: the rows and
    their categorical mask, the hyperparameter grid, the Cholesky
    factors of its kernel stack and their log-determinants, all built
    once. A GP's targets enter only through its own standardization and
    ``alpha``.

    It also memoizes, for the last read-only query while more than one
    GP uses it, the cross-kernel per lengthscale and the explained
    variance per grid point (:meth:`posterior`). The memo is keyed on
    the query array's identity, so a writeable query is recomputed on
    every call. ``len(basis)`` is its row count, as ``len(X)`` is for
    a fit on rows (the benchmark's tracer records it).
    """

    def __init__(self, cat_mask: np.ndarray, X: np.ndarray) -> None:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if not np.isfinite(X).all():
            raise ValueError("GP inputs and targets must be finite")
        self.cat_mask, self.X = np.asarray(cat_mask, bool), X
        # pairwise distances grow ~sqrt(d) in the unit cube, so the
        # candidate lengthscales must scale with dimensionality or a
        # high-d GP collapses to its prior mean between observations
        dim_scale = max(np.sqrt((~self.cat_mask).sum() / 2.0), 1.0)
        lengthscales = LS_GRID + tuple(g * dim_scale for g in LS_GRID)
        grid = [(ls, nz) for ls in lengthscales for nz in NOISE_GRID]
        n = len(X)
        noise = (np.array(NOISE_GRID) + _JITTER)[:, None, None] * np.eye(n)
        K = (mixed_kernel(X, X, self.cat_mask, lengthscales)[:, None] + noise).reshape(-1, n, n)
        try:
            L = np.linalg.cholesky(K)
        except np.linalg.LinAlgError:
            # NumPy raises for the whole stack if one matrix is not
            # positive definite: factorize matrix by matrix and go on
            # with the grid points that survive
            survivors = []
            for point, K_i in zip(grid, K):
                try:
                    survivors.append((point, np.linalg.cholesky(K_i)))
                except np.linalg.LinAlgError:
                    pass
            if not survivors:
                raise np.linalg.LinAlgError(
                    "no grid point gives a positive-definite kernel") from None
            grid, Ls = zip(*survivors)
            L = np.stack(Ls)
        self.grid, self.L = grid, L
        self.log_det = np.log(np.diagonal(L, axis1=1, axis2=2)).sum(axis=1)
        self.users = 0  # GPs fitted on this basis
        self._query: np.ndarray | None = None
        self._memo: dict = {}

    def __len__(self) -> int:
        return len(self.X)

    def posterior(self, Q: np.ndarray, lengthscale: float, noise: float,
                  L: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``k(Q, X)`` at ``lengthscale``, and the prior variance it
        explains at the grid point ``(lengthscale, noise)`` whose
        factor is ``L``: the column sums of v², v = L⁻¹ k(Q, X)ᵀ."""
        memo = self._memo_of(Q)
        Ks = memo.get(lengthscale)
        if Ks is None:
            Ks = memo[lengthscale] = mixed_kernel(Q, self.X, self.cat_mask, [lengthscale])[0]
        explained = memo.get((lengthscale, noise))
        if explained is None:
            v = np.linalg.solve(L, Ks.T)
            explained = memo[(lengthscale, noise)] = (v**2).sum(0)
        return Ks, explained

    def _memo_of(self, Q: np.ndarray) -> dict:
        if self.users < 2 or Q.flags.writeable:
            return {}
        if Q is not self._query:
            self._query, self._memo = Q, {}
        return self._memo


@dataclass
class GaussianProcess:
    """Zero-mean GP regression with the mixed kernel and white noise.

    ``fit`` selects hyperparameters on a small grid by log marginal
    likelihood; it raises ``ValueError`` on non-finite data and
    ``LinAlgError`` if no grid point's kernel factorizes. ``predict``
    returns the posterior mean and standard deviation in the original
    target units.
    """

    cat_mask: np.ndarray
    # fitted state
    basis: PosteriorBasis | None = field(init=False, default=None)
    _alpha: np.ndarray | None = field(init=False, default=None)
    _L: np.ndarray | None = field(init=False, default=None)
    _y_mean: float = field(init=False, default=0.0)
    _y_std: float = field(init=False, default=1.0)
    lengthscale: float = field(init=False, default=0.5)
    noise: float = field(init=False, default=1e-3)

    def fit(self, X: np.ndarray | PosteriorBasis, y: np.ndarray) -> "GaussianProcess":
        """Fit on the rows ``X``, or on the rows of a basis another GP
        was fitted on, sharing its factors. Keep the grid point of
        highest log marginal likelihood, the first on ties (lengthscale
        outer, noise inner)."""
        y = np.asarray(y, dtype=np.float64)
        if not np.isfinite(y).all():
            raise ValueError("GP inputs and targets must be finite")
        basis = X if isinstance(X, PosteriorBasis) else PosteriorBasis(self.cat_mask, X)
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0
        z = (y - self._y_mean) / self._y_std
        L, n = basis.L, len(basis)
        alpha = np.linalg.solve(
            L.transpose(0, 2, 1), np.linalg.solve(L, np.broadcast_to(z, (len(L), n))))
        half_z, log_norm = -0.5 * z, 0.5 * n * np.log(2 * np.pi)
        best = (-np.inf, None)
        for (ls, nz), L_i, a, ld in zip(basis.grid, L, alpha, basis.log_det):
            # an owned copy: a dot product over a view into the stack
            # may round differently (BLAS alignment)
            a = a.copy()
            lml = half_z @ a - ld - log_norm
            if lml > best[0]:
                best = (lml, (ls, nz, L_i, a))
        ls, nz, L, a = best[1]
        self.lengthscale, self.noise = ls, nz
        self._L, self._alpha = L.copy(), a
        self.basis = basis
        basis.users += 1
        return self

    def predict(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self.basis is None:
            raise RuntimeError("GP is not fitted")
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        Ks, explained = self.basis.posterior(X, self.lengthscale, self.noise, self._L)
        mu = Ks @ self._alpha
        # the kernel is stationary with unit amplitude: k(x, x) = 1
        var = np.clip(1.0 + self.noise - explained, 1e-12, None)
        return (
            mu * self._y_std + self._y_mean,
            np.sqrt(var) * self._y_std,
        )
