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
the categorical-dimension count. The kernel, :func:`mixed_kernel`, is
:class:`KernelRows`, one set of rows encoded once, whose ``parts`` of
query rows are the factors no lengthscale enters, and :func:`_kernels`,
which adds one Matérn, one SE ``exp`` and the products per lengthscale;
rows carry the datasize column exactly when they are wider than the
categorical mask. The kernels of all grid points are factorized with
one stacked Cholesky (point by point only when that raises, keeping the
points that succeed) in a :class:`PosteriorBasis` that every GP fitted
on the same rows shares: each GP adds its own standardization, two
stacked solves for ``alpha`` and its grid choice. Per read-only query,
the basis memoizes the parts, the cross-kernel and the explained
variance (Rasmussen & Williams 2006, Alg. 2.1: the targets enter the
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
    return _kernels(KernelRows(B, cat_mask).parts(A), lengthscales)


class KernelRows:
    """Rows ``B`` encoded once for the kernels of any query rows against
    them: the numeric block and its squared norms, the categorical
    one-hot and the datasize column. :meth:`parts` gives a query's
    lengthscale-free factors, :func:`_kernels` the kernels from them."""

    def __init__(self, B: np.ndarray, cat_mask: np.ndarray) -> None:
        d = len(cat_mask)
        self.B, self.cat_mask = B, cat_mask
        self.num = B[:, :d][:, ~cat_mask]
        self.num_sq = (self.num**2).sum(1)
        self.onehot = None
        n_cat = np.count_nonzero(cat_mask)
        if n_cat:
            # the mismatch count as one product: each B entry equals one
            # distinct value of its column, so a one-hot over those adds the
            # same 0/1s as a broadcast over B (small integer sums are exact)
            Bc = B[:, :d][:, cat_mask]
            Bs = np.sort(Bc, axis=0).T
            first = np.ones(Bs.shape, bool)
            first[:, 1:] = Bs[:, 1:] != Bs[:, :-1]
            c, self.vals = np.nonzero(first)[0], Bs[first]
            self.cat_cols = np.flatnonzero(cat_mask)[c]
            self.onehot = (Bc.T[c] == self.vals[:, None]).astype(np.float64)
            self.decay = max(n_cat / 2.0, 0.5)
        self.size = B[:, d:] if B.shape[1] > d else None

    def parts(self, A: np.ndarray) -> tuple:
        """The factors of the kernel between ``A`` and these rows that no
        lengthscale enters: the numeric distances, the Hamming factor
        (None without categoricals) and the squared datasize distances
        (None without that column; one row when every row of ``A`` has
        the same data size, as every candidate of one pick has)."""
        if A.shape[1] != self.B.shape[1]:
            raise ValueError(
                f"kernel rows differ in width: {A.shape[1]} and {self.B.shape[1]}")
        d = len(self.cat_mask)
        if A is self.B:
            An, An_sq = self.num, self.num_sq
        else:
            An = A[:, :d][:, ~self.cat_mask]
            An_sq = (An**2).sum(1)
        D = np.sqrt(np.maximum(
            An_sq[:, None] + self.num_sq[None, :] - 2.0 * An @ self.num.T, 0.0))
        H = S = None
        if self.onehot is not None:
            mism = (np.abs(A[:, self.cat_cols] - self.vals) > 1e-9).astype(np.float64) @ self.onehot
            H = np.exp(-mism / self.decay)
        if self.size is not None:
            a = A[:, d:]
            S = _pairwise_sq(a[:1] if len(a) > 1 and (a == a[0]).all() else a, self.size)
        return D, H, S


def _kernels(parts: tuple, lengthscales: Sequence[float]) -> np.ndarray:
    """The kernel stack of :func:`mixed_kernel` from a query's
    :meth:`KernelRows.parts`: per lengthscale one Matérn, one SE ``exp``
    and their products."""
    D, H, S = parts
    scale = np.array([max(ls, 1e-6) for ls in lengthscales])[:, None, None]
    K = _matern52(D / scale)
    if H is not None:
        K = K * H
    if S is not None:
        two_sq = np.array([2.0 * max(ls, 1e-6) ** 2 for ls in lengthscales])
        K = K * np.exp(-S / two_sq[:, None, None])
    return K


class PosteriorBasis:
    """What the GPs fitted on one set of rows ``X`` share: the rows and
    their categorical mask, the hyperparameter grid, the Cholesky
    factors of its kernel stack and their log-determinants, all built
    once. A GP's targets enter only through its own standardization and
    ``alpha``.

    Its rows are encoded once (``rows``, a :class:`KernelRows`). It also
    memoizes, for the last read-only query while more than one GP uses
    it, the query's lengthscale-free parts, the cross-kernel per
    lengthscale and the explained variance per grid point
    (:meth:`posterior`). The memo is keyed on
    the query array's identity, so a writeable query is recomputed on
    every call. ``len(basis)`` is its row count, as ``len(X)`` is for
    a fit on rows (the benchmark's tracer records it).
    """

    def __init__(self, cat_mask: np.ndarray, X: np.ndarray) -> None:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if not np.isfinite(X).all():
            raise ValueError("GP inputs and targets must be finite")
        self.cat_mask, self.X = np.asarray(cat_mask, bool), X
        self.rows = KernelRows(X, self.cat_mask)
        # pairwise distances grow ~sqrt(d) in the unit cube, so the
        # candidate lengthscales must scale with dimensionality or a
        # high-d GP collapses to its prior mean between observations
        dim_scale = max(np.sqrt((~self.cat_mask).sum() / 2.0), 1.0)
        lengthscales = LS_GRID + tuple(g * dim_scale for g in LS_GRID)
        grid = [(ls, nz) for ls in lengthscales for nz in NOISE_GRID]
        n = len(X)
        noise = (np.array(NOISE_GRID) + _JITTER)[:, None, None] * np.eye(n)
        K = (_kernels(self.rows.parts(X), lengthscales)[:, None] + noise).reshape(-1, n, n)
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
            parts = memo.get("parts")
            if parts is None:
                parts = memo["parts"] = self.rows.parts(Q)
            Ks = memo[lengthscale] = _kernels(parts, [lengthscale])[0]
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
