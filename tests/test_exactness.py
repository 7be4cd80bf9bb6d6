"""Exactness regression: a sha256 over the configs that short tuning runs
suggest, against digests recorded before the trees became flat arrays.

Each run reaches the models its tuner fits. On HiBench terasort, a
15-iteration ``OnlineTuner`` passes an AGD step (iteration 10), the first
sub-space refit (random forest + fANOVA, iteration 11) and the EIC
proposals around them. A 14-iteration ``TunefulTuner`` passes its
one-shot fANOVA pick (iteration 11); RFHOC and DAC pass their forest and
boosted-tree fits and the GA searches over their predictions.

A change meant to keep behaviour (a refactor, a speed-up) must keep
every digest. A change meant to alter what the tuners suggest updates
the digests it moves, and CHANGES.md says why they moved.
"""
import hashlib
import json

import pytest

from repro.baselines import DACTuner, RFHOCTuner, TunefulTuner
from repro.core.controller import OnlineTuner
from repro.experiments.harness import (
    SimEvaluator, default_constraints, make_problem, run_tuning,
)
from repro.experiments.hibench import hibench_env
from repro.simcluster import get_profile

DIGESTS = {
    "Ours": "ebaec21d5822353d47b95346da355b6f83e14fd07363313906588f4c1920f0ba",
    "Tuneful": "d3f00a86962f08786a00038239555f9e4025cb4fde0ef9400b7c2cede7c64c55",
    "RFHOC": "adcd610f0fa3a47aed97390a72f20885520b779fb2a7e0d020f662fda9adb870",
    "DAC": "acf864badabbbf765b8dbbfb10598c48095216da85cd101b15fc31080208562e",
}


def _run(method, budget: int):
    """``harness.tune`` at seed 0, keeping the tuner to inspect."""
    space, sim = hibench_env()
    profile, default = get_profile("terasort"), space.default_config()
    problem = make_problem(0.5, default_constraints(space, profile, sim, default))
    kwargs = {"use_meta": False, "reference_config": default} if method is OnlineTuner else {}
    tuner = method(space, problem, seed=0, **kwargs)
    run_tuning(tuner, SimEvaluator(profile, sim, seed=0), budget)
    digest = hashlib.sha256()
    for obs in tuner.history.observations:
        digest.update(json.dumps(obs.config, sort_keys=True).encode())
    return tuner, digest.hexdigest()


class TestSuggestedConfigsUnchanged:
    def test_online_tuner(self):
        tuner, digest = _run(OnlineTuner, 15)
        assert tuner.generator.subspace.importance is not None  # the refit ran
        assert not tuner.stopped
        assert digest == DIGESTS["Ours"]

    def test_tuneful(self):
        tuner, digest = _run(TunefulTuner, 14)
        assert tuner._dims is not None  # the fANOVA pick ran
        assert digest == DIGESTS["Tuneful"]

    @pytest.mark.parametrize("method", [RFHOCTuner, DACTuner], ids=lambda m: m.name)
    def test_tree_model_baselines(self, method):
        tuner, digest = _run(method, 14)
        assert len(tuner.history) > method.n_warmup  # the model was fitted
        assert digest == DIGESTS[method.name]
