"""CherryPick (Alipourfard et al., NSDI 2017).

Bayesian optimization that minimizes execution cost subject to a
runtime threshold — EI weighted by the probability of meeting the
constraint. CherryPick needs no offline runs (NOER ✓) and partially
supports constraints (Table 1: Constr. △) but never reduces the search
space, has no safe region, and uses no meta-knowledge — so, as §6.3
notes, "it cannot handle the large Spark search space well".
"""
from __future__ import annotations

from repro.baselines.base import PARTIAL, YES, Capabilities, Tuner
from repro.core.acquisition import propose
from repro.core.bo import fit_surrogates


class CherryPickTuner(Tuner):
    """Full-space BO with constrained EI; Sobol initial design."""

    name = "CherryPick"
    capabilities = Capabilities(constraints=PARTIAL, noer=YES)
    n_init = 3
    n_candidates = 1000

    def suggest(self) -> dict:
        it = len(self.history)
        if it < self.n_init:
            return self.space.sample_sobol(self.n_init, seed=self.seed)[it]
        thresholds = self.problem.thresholds("runtime")
        surrogates = fit_surrogates(self.history, runtime=bool(thresholds))
        cands = self.space.sample_random(self.n_candidates, self.rng)
        idx, _ = propose(self.history, cands, surrogates, runtime_thresholds=thresholds)
        return cands[idx]
