"""``python -m repro.experiments <name>``: run one registered experiment
at full size, print the text saved as ``benchmarks/results/<name>.txt``,
then check its paper-shape gate. BLAS gets one thread unless the
environment says otherwise, as the saved results did: the thread count
changes what the tuners suggest."""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # before anything imports NumPy

import argparse  # noqa: E402

from repro.experiments.registry import EXPERIMENTS  # noqa: E402

if __name__ == "__main__":
    parser = argparse.ArgumentParser(prog="python -m repro.experiments")
    parser.add_argument("name", choices=EXPERIMENTS)
    experiment = EXPERIMENTS[parser.parse_args().name]
    result = experiment.run()
    print(experiment.format(result))
    experiment.gate(result)
