"""DAC (Yu et al., ASPLOS 2018): datasize-aware auto-tuning.

DAC builds *hierarchical modelling trees* (boosted regression trees
over configuration + datasize inputs) and searches them with a genetic
algorithm. Like RFHOC it is an offline, runtime-oriented method
(Table 1: all ✗), but it is datasize-aware: the model input includes
the run's input size, so we append the datasize feature exactly as the
paper's mixed-kernel GP does.
"""
from __future__ import annotations

from repro.baselines.base import Capabilities, Tuner
from repro.baselines.ga import ga_minimize
from repro.core.bo import model_rows
from repro.ml.gbm import GradientBoostedRegressor


class DACTuner(Tuner):
    """Hierarchical (boosted) tree model + GA, datasize-aware."""

    name = "DAC"
    capabilities = Capabilities()
    n_warmup = 12

    def suggest(self) -> dict:
        if len(self.history) < self.n_warmup:
            return self.space.sample_random(1, self.rng)[0]
        X = self.history.X_unit(with_datasize=True)
        y = self.history.objectives()
        model = GradientBoostedRegressor(n_estimators=60, max_depth=4).fit(X, y)
        ds = self.history.next_datasize()
        return ga_minimize(self.space, lambda U: model.predict(model_rows(U, ds)), rng=self.rng)
