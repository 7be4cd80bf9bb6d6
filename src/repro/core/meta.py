"""Meta-learning based acceleration (§5).

Task similarity: two tasks are close when their surrogates *rank*
configurations the same way — distance is the scaled negative
Kendall-tau discordance of the tasks' surrogate predictions on shared
random configurations, ``Dist = (1 − τ)/2 ∈ [0, 1]``. A GBM regressor
(LightGBM in the paper; :class:`repro.ml.gbm.GradientBoostedRegressor`
here) learns to predict that distance from the 75-dim event-log
meta-features of the two tasks, so similarity is available for a *new*
task before any surrogate exists.

The learned similarity powers (§5.2), both over the ``N_SOURCES``
nearest source tasks (:meth:`MetaLearner.nearest`):
- **warm-starting** — their best configurations seed the initial design;
- **ensemble surrogate** — ``μ_meta = Σ wᵢμᵢ``, ``σ²_meta = Σ wᵢ²σᵢ²``
  (Eq. 12) over the source surrogates plus the current-task GP, whose
  weight is the rank agreement of its in-sample predictions with the
  observed targets (not the paper's leave-one-out cross-validation).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.config_space import ConfigSpace
from repro.core.gp import GaussianProcess
from repro.ml.gbm import GradientBoostedRegressor

if TYPE_CHECKING:  # core.bo builds the meta-ensemble, so it imports this module
    from repro.core.bo import RunHistory

N_SOURCES = 3  # source tasks a target transfers from (§5.2's top-3)
N_SHARED_CONFIGS = 128  # random configs two surrogates are ranked on


def kendall_tau(a: np.ndarray, b: np.ndarray) -> float:
    """Kendall rank correlation of two score vectors (O(n²), ties → 0)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) != len(b) or len(a) < 2:
        raise ValueError("need two aligned vectors of length >= 2")
    da = np.sign(a[:, None] - a[None, :])
    db = np.sign(b[:, None] - b[None, :])
    iu = np.triu_indices(len(a), k=1)
    prod = da[iu] * db[iu]
    n_pairs = len(prod)
    return float(prod.sum() / n_pairs) if n_pairs else 0.0


def rank_distance(tau: float) -> float:
    """Dist = (1 − τ)/2, scaled to [0, 1] (§5.1)."""
    return (1.0 - tau) / 2.0


@dataclass
class SourceTask:
    """A previous tuning task stored in the data repository."""

    name: str
    meta: np.ndarray                    # 75-dim event-log meta-features
    history: RunHistory
    surrogate: GaussianProcess = field(init=False)

    def __post_init__(self) -> None:
        self.surrogate = GaussianProcess(self.history.space.cat_mask)
        y = self.history.penalized_objectives()
        # standardize per-task so cross-task predictions are comparable
        mu, sd = float(y.mean()), float(y.std()) or 1.0
        self.surrogate.fit(self.history.X_unit(), (y - mu) / sd)


def _shared_configs(space: ConfigSpace, seed: int = 0) -> np.ndarray:
    """The unit rows, on the grid, of the random configs two surrogates
    are ranked on."""
    return space.snap(space.sample_unit(N_SHARED_CONFIGS, np.random.default_rng(seed)))[1]


def surrogate_distance(
    t1: SourceTask, t2: SourceTask, space: ConfigSpace, *, seed: int = 0
) -> float:
    """Dist(Mⁱ, Mʲ) via Kendall-tau on random shared configs (§5.1)."""
    U = _shared_configs(space, seed)
    return rank_distance(kendall_tau(t1.surrogate.predict(U)[0], t2.surrogate.predict(U)[0]))


def _pair_features(v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """Symmetric pair encoding for the similarity regressor."""
    return np.concatenate([np.abs(v1 - v2), (v1 + v2) / 2.0])


@dataclass
class MetaLearner:
    """The meta-knowledge learner: similarity model + transfer methods."""

    space: ConfigSpace
    seed: int = 0
    # fitted state
    tasks: list[SourceTask] = field(init=False, default_factory=list)
    model: GradientBoostedRegressor | None = field(init=False, default=None)

    def fit(self, tasks: list[SourceTask]) -> "MetaLearner":
        """Train M_reg on all source-task pairs, each pair's target its
        :func:`surrogate_distance`: every source predicts the shared
        configs once."""
        self.tasks = list(tasks)
        U = _shared_configs(self.space, self.seed)
        preds = [t.surrogate.predict(U)[0] for t in tasks]
        X, y = [], []
        for i in range(len(tasks)):
            for j in range(i + 1, len(tasks)):
                d = rank_distance(kendall_tau(preds[i], preds[j]))
                for a, b in ((i, j), (j, i)):
                    X.append(_pair_features(tasks[a].meta, tasks[b].meta))
                    y.append(d)
        if len(y) < 2:
            raise ValueError("need at least two source tasks to learn similarity")
        self.model = GradientBoostedRegressor(n_estimators=80, max_depth=3).fit(
            np.array(X), np.array(y))
        return self

    def predict_distance(self, v1: np.ndarray, v2: np.ndarray) -> float:
        if self.model is None:
            raise RuntimeError("meta-learner is not fitted")
        d = float(self.model.predict(_pair_features(v1, v2)[None, :])[0])
        return float(np.clip(d, 0.0, 1.0))

    def rank_sources(self, target_meta: np.ndarray) -> list[tuple[SourceTask, float]]:
        """Source tasks ordered by distance to the target.

        The score blends the learned regressor with a normalized
        Euclidean term on the (already log-compressed) meta-features:
        with only a handful of source tasks the Kendall-tau targets are
        nearly uniform, so the regressor alone has little signal — the
        feature-distance term regularizes the ranking toward tasks of
        the same computational shape. (The paper's objection to raw
        Euclidean distance is heterogeneous feature scales; our
        features are scale-normalized at extraction.)
        """
        def score(t: SourceTask) -> float:
            d_learned = self.predict_distance(t.meta, target_meta)
            denom = np.linalg.norm(t.meta) + np.linalg.norm(target_meta) + 1e-12
            d_feat = float(np.linalg.norm(t.meta - target_meta) / denom)
            return d_learned + d_feat

        scored = [(t, score(t)) for t in self.tasks]
        return sorted(scored, key=lambda p: p[1])

    def nearest(self, target_meta: np.ndarray) -> list[tuple[SourceTask, float]]:
        """The ``N_SOURCES`` source tasks nearest the target, nearest
        first, each with its ensemble weight ``max(1 − d, 0)``."""
        return [(t, max(1.0 - d, 0.0)) for t, d in self.rank_sources(target_meta)[:N_SOURCES]]


@dataclass
class MetaEnsembleSurrogate:
    """Weighted GP ensemble, Eq. 12, over the source surrogates and the
    current-task GP fitted on ``train_X``, ``train_y``. Source surrogates
    predict in their standardized units; predictions are mapped into
    the current task's objective scale before mixing."""

    sources: list[tuple[SourceTask, float]]
    current: GaussianProcess
    train_X: np.ndarray
    train_y: np.ndarray
    current_weight: float = field(init=False)

    def __post_init__(self) -> None:
        """The current-task weight: the Kendall-τ rank agreement of the
        GP's in-sample predictions with ``train_y`` (a GP nearly
        interpolates its training points, so this saturates after a few
        runs); 0.3 below four runs, or with nothing to rank."""
        self.current_weight = 0.3
        if len(self.train_X) >= 4:
            mu, _ = self.current.predict(self.train_X)
            if np.ptp(self.train_y) > 0 and np.ptp(mu) > 0:
                tau = kendall_tau(mu, self.train_y)
                self.current_weight = float(np.clip((1.0 + tau) / 2.0, 0.1, 1.0))

    def predict(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        X = np.atleast_2d(X)
        mu_c, sd_c = self.current.predict(X)
        mean, sd = float(self.train_y.mean()), float(self.train_y.std()) or 1.0
        mus, sigmas, weights = [mu_c], [sd_c], [self.current_weight]
        Xc = X[:, : len(self.current.cat_mask)]
        for task, w in self.sources:
            if w <= 0:
                continue
            m, s = task.surrogate.predict(Xc)
            mus.append(m * sd + mean)   # de-standardize into current units
            sigmas.append(s * sd)
            weights.append(w)
        w = np.array(weights)
        w = w / w.sum()
        mu = sum(wi * mi for wi, mi in zip(w, mus))
        var = sum((wi**2) * (si**2) for wi, si in zip(w, sigmas))
        return mu, np.sqrt(np.maximum(var, 1e-18))
