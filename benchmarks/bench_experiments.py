"""Benchmark: every registered experiment at full size — paper Tables
1–5, the Figure 4/5 HiBench comparison and the §6.4–6.5 ablations
(``repro.experiments.registry``). Each must pass its paper-shape gate,
then saves the text ``python -m repro.experiments <name>`` prints."""
import pytest

from repro.experiments.registry import EXPERIMENTS


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_experiment(benchmark, save_result, name):
    experiment = EXPERIMENTS[name]
    result = benchmark.pedantic(experiment.run, rounds=1, iterations=1)
    experiment.gate(result)
    save_result(name, experiment.format(result))
