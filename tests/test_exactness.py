"""Exactness regression: a sha256 over the configs that short tuning runs
suggest, against digests recorded before the trees became flat arrays
(the CherryPick, LOCAT, 30-iteration and meta-learned ones before the
tuner options became module constants).

Each run reaches the models its tuner fits. On HiBench terasort, a
15-iteration ``OnlineTuner`` passes an AGD step (iteration 10), the first
sub-space refit (random forest + fANOVA, iteration 11) and the EIC
proposals around them; a 30-iteration one that never stops passes all
five AGD steps (iterations 10, 15, …, 30) and four refits. A meta-learned
``OnlineTuner`` on HiBench lr starts from the best configs of three short
source runs and scores with the boosted-tree similarity model and the
meta-ensemble surrogate. A 14-iteration ``TunefulTuner`` passes its
one-shot fANOVA pick (iteration 11), ``LOCATTuner`` its Spearman pick and
datasize-aware GP, ``CherryPickTuner`` its full-space constrained EI;
RFHOC and DAC pass their forest and boosted-tree fits and the GA
searches over their predictions.

Four forests shaped like the sub-space refit's, Tuneful's, RFHOC's and
Table 5's are pinned on their own: a sha256 over every tree's node
arrays and one over the fANOVA importances, recorded before the feature
subsets were drawn once per forest. So are two boosted-tree fits shaped
like the meta-learner's and DAC's: a sha256 over every stage's node
arrays, recorded before the trees grew in lockstep. A tree's arrays are
its slice of the model's stack, child indices counted from its root.
The 30-iteration and meta-learned ``OnlineTuner`` runs also pin the
acquisition value of every EIC pick, recorded before the candidates were
scored as sub-space blocks.

A change meant to keep behaviour (a refactor, a speed-up) must keep
every digest. A change meant to alter what the tuners suggest updates
the digests it moves, and CHANGES.md says why they moved.
"""
import hashlib
import json

import numpy as np
import pytest

from repro.baselines import CherryPickTuner, DACTuner, LOCATTuner, RFHOCTuner, TunefulTuner
from repro.core.config_space import ConfigSpace
from repro.core.controller import OnlineTuner
from repro.core.meta import MetaLearner, SourceTask
from repro.experiments.harness import (
    SimEvaluator, default_constraints, make_problem, run_tuning,
)
from repro.experiments.hibench import hibench_env
from repro.ml.fanova import fanova_importance
from repro.ml.forest import RandomForestRegressor
from repro.ml.gbm import GradientBoostedRegressor
from repro.simcluster import get_profile
from repro.simcluster.eventlog import meta_features
from tests.test_tree import _trees

DIGESTS = {
    "Ours": "ebaec21d5822353d47b95346da355b6f83e14fd07363313906588f4c1920f0ba",
    "Ours-30": "c61ffe3246742678adcd8231af638b45a13e640c2ee3abb254cd60b4ad4ab6d8",
    "Ours-meta": "01b34a812f0b610fc23855a572e8535e07d4701f3b0ab514a74d059b988761a7",
    "Tuneful": "d3f00a86962f08786a00038239555f9e4025cb4fde0ef9400b7c2cede7c64c55",
    "CherryPick": "46fbc500c87ed23192b27690ad24ae7795d3c8297e176fbfffa12908ae6a30eb",
    "LOCAT": "04d4e4903157438672718f0814c090360be7d8efad4ef5dfd28be0105c62854b",
    "RFHOC": "adcd610f0fa3a47aed97390a72f20885520b779fb2a7e0d020f662fda9adb870",
    "DAC": "acf864badabbbf765b8dbbfb10598c48095216da85cd101b15fc31080208562e",
}
#: The objective each suggestion of the 30-iteration ``OnlineTuner`` is
#: expected to reach, as the restart rule compares it with the run.
EXPECTED_DIGEST = "a78bd6da0c66737d7e9624bfa77c0bd26f7edd33f893af665da46f5e74f6e4da"
#: The acquisition value of every EIC pick (``ConfigGenerator.last_ei``)
#: of the 30-iteration and the meta-learned ``OnlineTuner`` runs: the
#: candidates' scores, not only which one wins.
LAST_EI_DIGESTS = {
    "Ours-30": "9050123f2f3ce433dd8aadcfceb52230c1c964e445ba6a597df6a29451d5f191",
    "Ours-meta": "3aa81a41c8daf874fb7404eff64be69094ec54af2b298023e4887c4d82252371",
}


def _digest(history) -> str:
    digest = hashlib.sha256()
    for obs in history.observations:
        digest.update(json.dumps(obs.config, sort_keys=True).encode())
    return digest.hexdigest()


class _RecordingEI(OnlineTuner):
    """An ``OnlineTuner`` that keeps the ``last_ei`` of each EIC pick."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.eic_values = []

    def suggest(self):
        # an EIC pick sets last_ei; NaN marks a suggestion that made none
        # (design, AGD, stopped), which then keeps the value it had
        gen = self.generator
        before, gen.last_ei = gen.last_ei, float("nan")
        try:
            return super().suggest()
        finally:
            if gen.last_ei == gen.last_ei:
                self.eic_values.append(gen.last_ei)
            else:
                gen.last_ei = before


def _ei_digest(tuner) -> str:
    return hashlib.sha256(json.dumps(tuner.eic_values).encode()).hexdigest()


def _run(method, budget: int, task: str = "terasort", **kwargs):
    """``harness.tune`` at seed 0, keeping the tuner to inspect."""
    space, sim = hibench_env()
    profile, default = get_profile(task), space.default_config()
    problem = make_problem(0.5, default_constraints(space, profile, sim, default))
    if issubclass(method, OnlineTuner) and "meta_learner" not in kwargs:
        kwargs = {"use_meta": False, "reference_config": default} | kwargs
    tuner = method(space, problem, seed=0, **kwargs)
    run_tuning(tuner, SimEvaluator(profile, sim, seed=0), budget)
    return tuner, _digest(tuner.history)


class TestSuggestedConfigsUnchanged:
    def test_online_tuner(self):
        tuner, digest = _run(OnlineTuner, 15)
        assert tuner.generator.subspace.importance is not None  # the refit ran
        assert not tuner.stopped
        assert digest == DIGESTS["Ours"]

    def test_online_tuner_every_agd_step(self):
        tuner, digest = _run(_RecordingEI, 30, ei_stop_rel=0.0)
        assert not tuner.stopped
        assert digest == DIGESTS["Ours-30"]
        # 27 generated suggestions, five of them AGD steps
        assert len(tuner.eic_values) == 22
        assert _ei_digest(tuner) == LAST_EI_DIGESTS["Ours-30"]

    def test_online_tuner_restart_expectations(self):
        expectations = []

        class Recording(OnlineTuner):
            def observe(self, config, result):
                expectations.append(self._expected)
                super().observe(config, result)

        _, digest = _run(Recording, 30, ei_stop_rel=0.0)
        assert digest == DIGESTS["Ours-30"]  # the run above
        assert expectations[:OnlineTuner.n_init] == [None] * OnlineTuner.n_init
        assert None not in expectations[OnlineTuner.n_init:]
        assert hashlib.sha256(json.dumps(expectations).encode()).hexdigest() == EXPECTED_DIGEST

    def test_meta_learned_online_tuner(self):
        space, sim = hibench_env()
        sources = []
        for name in ("terasort", "kmeans", "wordcount"):
            tuner, _ = _run(OnlineTuner, 8, task=name)
            history = tuner.history
            sources.append(
                SourceTask(name, meta_features(history.observations[0].result), history)
            )
        learner = MetaLearner(space, seed=0).fit(sources)
        probe = sim.run(get_profile("lr"), space.default_config(), seed=0)
        tuner, digest = _run(_RecordingEI, 12, task="lr", meta_learner=learner,
                             target_meta=meta_features(probe))
        assert tuner.generator.meta_sources is not None
        assert digest == DIGESTS["Ours-meta"]
        assert tuner.eic_values  # scored by the meta-ensemble
        assert _ei_digest(tuner) == LAST_EI_DIGESTS["Ours-meta"]

    def test_tuneful(self):
        tuner, digest = _run(TunefulTuner, 14)
        assert tuner._dims is not None  # the fANOVA pick ran
        assert digest == DIGESTS["Tuneful"]

    def test_cherrypick(self):
        tuner, digest = _run(CherryPickTuner, 14)
        assert digest == DIGESTS["CherryPick"]

    def test_locat(self):
        tuner, digest = _run(LOCATTuner, 14)
        assert tuner._dims is not None  # the Spearman pick ran
        assert digest == DIGESTS["LOCAT"]

    @pytest.mark.parametrize("method", [RFHOCTuner, DACTuner], ids=lambda m: m.name)
    def test_tree_model_baselines(self, method):
        tuner, digest = _run(method, 14)
        assert len(tuner.history) > method.n_warmup  # the model was fitted
        assert digest == DIGESTS[method.name]


#: (rows, forest options) shaped like each caller's forest: the sub-space
#: refit (16 trees of depth 5, 10 features per node), Tuneful's one-shot
#: pick (the default ``max_features``), RFHOC's model (20 trees of depth
#: 10) and Table 5's (120 rows, depth 6). All fit snapped unit rows of
#: the 30-parameter space.
FOREST_CASES = {
    "refit": (25, dict(n_estimators=16, max_depth=5, max_features=10)),
    "Tuneful": (11, dict(n_estimators=16, max_depth=5)),
    "RFHOC": (40, dict(n_estimators=20, max_depth=10)),
    "Table5": (120, dict(n_estimators=16, max_depth=6)),
}
#: sha256 of every tree's node arrays, and of the fANOVA importances.
FOREST_DIGESTS = {
    "refit": ("b3b6027b23de421557806aba4f6a59220586873c0c9803d3fba9478ffb74d47e",
              "1df4bcb68721543d5dd6eaed074185e9eec52d427d3b06036e312b650752e80b"),
    "Tuneful": ("5a5ac11218289d3ad52e96d82719e5603458aafd470dc7dd4101e03cdc693c2a",
                "bb93f26d888970747aab67cbdceee8f1b590c8526823ca68762af4ab2f86cf16"),
    "RFHOC": ("3dc9c48b74acbd826546cbd7ce7bccbba5636006871e3ee9c13c907accc54b58",
              "cdf64170878bfdcf4905bab8f8c3be79afb222b5e7529b57d244db106326d2d0"),
    "Table5": ("624b6b845792bfc6a1c37b1f62e65da76e3325ce5935c61ee8a4803da36527c3",
               "35cdc6bf5353e266fa5d0e006ad867e62039f329be7c80682a15f0325436c56b"),
}


def _forest(case: str):
    n, options = FOREST_CASES[case]
    space = ConfigSpace()
    rng = np.random.default_rng(n)
    U = space.snap(space.sample_unit(n, rng))[1]
    # an objective-like target with a few ties
    y = np.exp(2.0 * U[:, 0] - U[:, 3] * U[:, 7] + rng.normal(0.0, 0.2, n)).round(2)
    return RandomForestRegressor(seed=3, **options).fit(U, y), space.dim


def _sha(arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(a.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("case", FOREST_CASES)
def test_forest_and_fanova_unchanged(case):
    forest, dim = _forest(case)
    nodes = _sha(np.asarray(a, dtype=dt) for t in _trees(forest.stack)
                 for a, dt in ((t.feature, np.int64), (t.threshold, np.float64),
                               (t.left, np.int64), (t.right, np.int64),
                               (t.value, np.float64)))
    importance = _sha([np.asarray(fanova_importance(forest, dim), dtype=np.float64)])
    assert (nodes, importance) == FOREST_DIGESTS[case]


#: (rows, columns, boosting options) shaped like each caller's model: the
#: meta-learner's similarity regressor (a dozen pair rows of four sources'
#: 75 meta-features) and DAC's (unit rows of the 30-parameter space plus
#: the datasize column).
GBM_CASES = {
    "meta": (12, 150, dict(n_estimators=80, max_depth=3)),
    "DAC": (30, 31, dict(n_estimators=60, max_depth=4)),
}
#: sha256 of every stage's node arrays.
GBM_DIGESTS = {
    "meta": "2da7e10efcc20f824d03c81d898f58e5bc2f891e3be46f161a7e4f7551528052",
    "DAC": "3171e4a0cec6a47608846c26c1325c597596c3e3f40eeb254116e2a92eb77211",
}


def _gbm(case: str):
    n, d, options = GBM_CASES[case]
    rng = np.random.default_rng(d)
    if case == "meta":
        # every ordered pair of four sources, both orders sharing a distance
        meta = np.log1p(rng.gamma(1.0, 5.0, (4, d // 2))).round(3)
        pairs = [(a, b) for a in range(4) for b in range(4) if a != b]
        X = np.array([np.r_[np.abs(meta[a] - meta[b]), (meta[a] + meta[b]) / 2.0]
                      for a, b in pairs])
        dist = rng.random((4, 4)).round(3)
        y = np.array([dist[min(a, b), max(a, b)] for a, b in pairs])
    else:
        space = ConfigSpace()
        U = space.snap(space.sample_unit(n, rng))[1]
        X = np.c_[U, rng.choice([0.25, 0.5, 1.0], n)]
        y = np.exp(2.0 * U[:, 0] - U[:, 3] * U[:, 7] + rng.normal(0.0, 0.2, n)).round(2)
    return GradientBoostedRegressor(**options).fit(X, y)


@pytest.mark.parametrize("case", GBM_CASES)
def test_gbm_unchanged(case):
    model = _gbm(case)
    assert len(model.stack.roots) == GBM_CASES[case][2]["n_estimators"]
    assert _sha(np.asarray(a, dtype=dt) for t in _trees(model.stack)
                for a, dt in ((t.feature, np.int64), (t.threshold, np.float64),
                              (t.left, np.int64), (t.right, np.int64),
                              (t.value, np.float64))) == GBM_DIGESTS[case]
