"""Acquisition functions: EI, constrained EI (EIC), and the safe region.

Implements Eq. 3 (Expected Improvement, minimization form), Eq. 6–7
(EIC: EI × probability of meeting the runtime bound, from the
log-runtime surrogate) and Eq. 8 (safe region via the GP upper bound
``u(x) = mu(x) + gamma * sigma(x) <= threshold``). No scipy offline:
the standard normal CDF uses ``math.erf``. :func:`propose` is the one
scoring step that Ours and the BO baselines share: the candidates'
model inputs → posteriors (the two GPs of one fit share their work on
one read-only view of the inputs) → EI/EIC (masked to the safe region)
→ argmax; only the winning row becomes a config dict, in the caller.
"""
from __future__ import annotations

import math

import numpy as np

from repro.core.bo import RunHistory, Surrogates


def norm_pdf(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    return np.exp(-0.5 * z**2) / math.sqrt(2.0 * math.pi)


def norm_cdf(z: np.ndarray) -> np.ndarray:
    w = np.asarray(z, dtype=np.float64) / math.sqrt(2.0)
    # libm's erf per element (NumPy has no erf); a list through fromiter
    # skips np.vectorize's per-element dispatch
    erf = np.fromiter(map(math.erf, w.ravel().tolist()), np.float64, w.size)
    return 0.5 * (1.0 + erf.reshape(w.shape))


def expected_improvement(
    mu: np.ndarray, sigma: np.ndarray, best: float
) -> np.ndarray:
    """EI for *minimization*: E[max(best - y, 0)] under N(mu, sigma^2)."""
    sigma = np.maximum(np.asarray(sigma, dtype=np.float64), 1e-12)
    gamma = (best - np.asarray(mu, dtype=np.float64)) / sigma
    return sigma * (gamma * norm_cdf(gamma) + norm_pdf(gamma))


def prob_below(mu: np.ndarray, sigma: np.ndarray, threshold: float) -> np.ndarray:
    """Pr[y <= threshold] under the GP posterior (Eq. 7)."""
    sigma = np.maximum(np.asarray(sigma, dtype=np.float64), 1e-12)
    return norm_cdf((threshold - np.asarray(mu, dtype=np.float64)) / sigma)


def eic(
    mu: np.ndarray,
    sigma: np.ndarray,
    best: float,
    runtime: tuple[np.ndarray, np.ndarray, float] | None = None,
) -> np.ndarray:
    """EIC(x) = EI(x) * Pr[log T(x) <= log t_max] (Eq. 6): ``runtime``
    is the log-runtime posterior and log-threshold ``(mu_t, sd_t,
    log_thr)``, Eq. 1's one black-box bound; EI alone when it is None."""
    a = expected_improvement(mu, sigma, best)
    if runtime is not None:
        a = a * prob_below(*runtime)
    return a


def safe_mask(
    mu: np.ndarray, sigma: np.ndarray, threshold: float, gamma: float = 1.0
) -> np.ndarray:
    """Safe-region membership: mu + gamma*sigma <= threshold (Eq. 8)."""
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must be in (0, 1]")
    return (np.asarray(mu) + gamma * np.asarray(sigma)) <= threshold


def propose(
    history: RunHistory,
    X: np.ndarray,
    surrogates: Surrogates,
    *,
    t_max: float | None = None,
    gamma: float | None = None,
) -> tuple[int, float]:
    """Index of the candidate to run next, and its acquisition value.

    Scores the candidates, one model input each: a snapped unit row (see
    :meth:`repro.core.config_space.ConfigSpace.snap`), with the datasize
    column when the surrogates model it. It scores a read-only view of
    ``X``: the GPs of one fit share their posterior work on a read-only
    query (see :class:`repro.core.gp.PosteriorBasis`), and the caller's
    array is left as it is. The score is EI over the incumbent, times
    Pr[runtime <= t_max] when ``t_max`` is set (EIC;
    ``surrogates.runtime`` must be fitted then, on log-runtime). With
    ``gamma`` set too, the argmax is restricted to the safe region of
    ``t_max``; when no candidate is in it, the most plausibly safe one
    (least ``mu + gamma*sigma``, as in SafeOpt-style search) is returned
    with value ``inf``.
    """
    X = X.view()
    X.flags.writeable = False
    runtime = safe = None
    if t_max is not None:
        mu_t, sd_t = surrogates.runtime.predict(X)
        log_thr = np.log(max(t_max, 1e-9))
        runtime = (mu_t, sd_t, log_thr)
        if gamma is not None:
            safe = safe_mask(mu_t, sd_t, log_thr, gamma)
            if not safe.any():
                return int(np.argmin(mu_t + gamma * sd_t)), float("inf")
    mu_f, sd_f = surrogates.objective.predict(X)
    acq = eic(mu_f, sd_f, float(history.best().objective), runtime)
    if safe is not None:
        acq = np.where(safe, acq, -np.inf)
    idx = int(np.argmax(acq))
    return idx, float(acq[idx]) if np.isfinite(acq[idx]) else 0.0
