"""Approximate gradient descent within BO (§4.3, Eq. 9–11).

Every ``N_AGD`` iterations the next configuration is produced not by
the acquisition function but by one gradient step from the incumbent's
unit row:

- ``∂R/∂x`` is a central finite difference of the white-box resource
  function R(x) at the probes snapped onto the grid (only their moved
  dims go through the snap), all probes' R in one call (no job
  executions: R is computed from the config),
- ``∂T/∂x`` is approximated by a central finite difference of the
  *runtime surrogate* (Eq. 10) — no extra job executions,
- the generalized objective's partial derivative combines them via
  Eq. 9, and each numeric parameter moves by ``-η · ∂f/∂x`` (Eq. 11).

Steps are taken in the unit cube (chain rule through the unit mapping),
with an additional norm clip so one step cannot jump across the space
— raw-scale η=0.001 (paper) translates to microscopic unit steps for
wide log-ranged integers, so the clip keeps AGD useful at every scale.
Categorical parameters have no gradient and are left unchanged.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.bo import Surrogates, model_rows
from repro.core.config_space import ConfigSpace
from repro.core.objective import resource

N_AGD = 5        # every N_AGD-th iteration uses AGD instead of EIC (paper value)
ETA = 0.001      # learning rate on the raw objective scale (paper value)
FD_EPS = 0.05    # finite-difference half-width in unit space
MAX_STEP = 0.08  # unit-space norm clip per AGD move


@dataclass
class AGDStepper:
    """One approximate-gradient-descent step from the incumbent.
    ``surrogates.runtime`` models log(T)."""

    space: ConfigSpace
    beta: float

    def step(
        self, u: np.ndarray, surrogates: Surrogates, *, dims: list[int] | None = None
    ) -> np.ndarray:
        """The next unit row (Eq. 11) from the unit row ``u``, not yet
        snapped onto the grid."""
        cat = self.space.cat_mask
        dims = [i for i in (dims if dims is not None else range(self.space.dim)) if not cat[i]]

        def predict_T(uu: np.ndarray) -> float:
            mu, _ = surrogates.runtime.predict(model_rows(uu[None, :], surrogates.datasize))
            # the generator's runtime GP is fit on log-runtime; Eq. 9/10
            # need T itself, so map back before differencing
            return float(np.exp(mu[0]))

        # probe rows: the incumbent, then one row up and one down per dim
        k = len(dims)
        P = np.tile(u, (1 + 2 * k, 1))
        rows = np.arange(k)
        P[1 + rows, dims] = np.minimum(1.0, u[dims] + FD_EPS)
        P[1 + k + rows, dims] = np.maximum(0.0, u[dims] - FD_EPS)
        probes = self.space.snap_subspace(P[:, dims], dims, u)
        R = np.broadcast_to(resource(probes.columns(self.space.names)), len(P)).tolist()

        grad = np.zeros(self.space.dim)
        T0, R0 = max(predict_T(u), 1e-9), max(R[0], 1e-9)
        ratio = T0 / R0
        for j, i in enumerate(dims):
            up, dn = P[1 + j], P[1 + k + j]
            width = up[i] - dn[i]
            if width <= 0:
                continue
            dT = (predict_T(up) - predict_T(dn)) / width       # Eq. 10
            # R through the grid, finite-differenced in unit space
            dR = (R[1 + j] - R[1 + k + j]) / width
            grad[i] = (
                self.beta * ratio ** (self.beta - 1.0) * dT
                + (1.0 - self.beta) * ratio**self.beta * dR
            )                                                   # Eq. 9
        step = ETA * grad
        norm = float(np.linalg.norm(step))
        if norm > MAX_STEP:
            step *= MAX_STEP / norm
        elif 0.0 < norm < 0.02:
            # η=0.001 on a well-scaled surrogate stalls in unit space;
            # take a short fixed-length step along the gradient instead
            step *= 0.02 / norm
        return np.clip(u - step, 0.0, 1.0)
