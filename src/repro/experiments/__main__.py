"""``python -m repro.experiments <name>``: run one registered experiment
at full size, print the text saved as ``benchmarks/results/<name>.txt``,
then check its paper-shape gate."""
import argparse

from repro.experiments.registry import EXPERIMENTS

if __name__ == "__main__":
    parser = argparse.ArgumentParser(prog="python -m repro.experiments")
    parser.add_argument("name", choices=EXPERIMENTS)
    experiment = EXPERIMENTS[parser.parse_args().name]
    result = experiment.run()
    print(experiment.format(result))
    experiment.gate(result)
