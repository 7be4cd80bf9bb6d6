"""Acquisition functions: EI, constrained EI (EIC), and the safe region.

Implements Eq. 3 (Expected Improvement, minimization form), Eq. 6–7
(EIC: EI × probability of satisfying each constraint, from runtime/
constraint surrogates) and Eq. 8 (safe region via the GP upper bound
``u(x) = mu(x) + gamma * sigma(x) <= threshold``). No scipy offline:
the standard normal CDF uses ``math.erf``. :func:`propose` is the one
scoring step that Ours and the BO baselines share: candidates →
posteriors → EI/EIC (masked to the safe region) → argmax.
"""
from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.core.bo import RunHistory, Surrogates

_erf = np.vectorize(math.erf, otypes=[np.float64])


def norm_pdf(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    return np.exp(-0.5 * z**2) / math.sqrt(2.0 * math.pi)


def norm_cdf(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    return 0.5 * (1.0 + _erf(z / math.sqrt(2.0)))


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
    constraint_posteriors: list[tuple[np.ndarray, np.ndarray, float]],
) -> np.ndarray:
    """EIC(x) = EI(x) * prod_c Pr[c(x) <= threshold_c] (Eq. 6)."""
    a = expected_improvement(mu, sigma, best)
    for c_mu, c_sigma, thr in constraint_posteriors:
        a = a * prob_below(c_mu, c_sigma, thr)
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
    cands: list[dict],
    surrogates: Surrogates,
    *,
    runtime_thresholds: Sequence[float] = (),
    gamma: float | None = None,
) -> tuple[int, float]:
    """Index of the candidate to run next, and its acquisition value.

    Scores ``cands`` by EI over the incumbent, times Pr[runtime <= t]
    for each of ``runtime_thresholds`` (EIC; ``surrogates.runtime`` must
    be fitted then, on log-runtime). With ``gamma`` set, the argmax is
    restricted to the safe region of those thresholds; when no candidate
    is in it, the most plausibly safe one (least ``mu + gamma*sigma``,
    as in SafeOpt-style search) is returned with value ``inf``.
    """
    U = surrogates.rows(history, cands)
    posteriors = []
    if runtime_thresholds:
        mu_t, sd_t = surrogates.runtime.predict(U)
        safe = np.ones(len(cands), dtype=bool)
        for thr in runtime_thresholds:
            log_thr = np.log(max(thr, 1e-9))
            posteriors.append((mu_t, sd_t, log_thr))
            if gamma is not None:
                safe &= safe_mask(mu_t, sd_t, log_thr, gamma)
        if gamma is not None and not safe.any():
            return int(np.argmin(mu_t + gamma * sd_t)), float("inf")
    mu_f, sd_f = surrogates.objective.predict(U)
    acq = eic(mu_f, sd_f, float(history.best().objective), posteriors)
    if gamma is not None and posteriors:
        acq = np.where(safe, acq, -np.inf)
    idx = int(np.argmax(acq))
    return idx, float(acq[idx]) if np.isfinite(acq[idx]) else 0.0
