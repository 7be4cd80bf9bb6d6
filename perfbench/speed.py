"""The host's speed, measured by a fixed probe between timed calls.

The benchmark shares a host whose speed moves by a third and more over
seconds and minutes, for every process on it alike: the same
``suggest()`` on the same tuner state took 169-384 ms within one minute
on a 4-vCPU Xeon VM. So each timed span is scaled by the time of a
fixed probe run next to it, to the time it would have taken at the
probe's reference speed::

    scaled = measured * PROBE_MS / probe

The probe is made like a suggestion, without any ``repro`` code: a
Python part that builds and sorts small dicts (as candidate generation
does) and a NumPy part of squared-exponential kernel rows (as a GP
prediction does). Its arrays stay below glibc's 128 KiB mmap threshold,
so it leaves the process's memory layout, and the memory metric, as it
found them.
"""
import statistics
import time

import numpy as np

#: The probe's median time on the 4-vCPU Xeon VM the benchmark was
#: defined on. It only sets the scale: scaled times read as milliseconds
#: on that host at its usual speed.
PROBE_MS = 8.0

_rng = np.random.default_rng(0)
_A = _rng.random((300, 12))   # 28 KiB: candidates
_B = _rng.random((40, 12))    # training rows
_KEYS = [f"spark.knob{i}" for i in range(30)]


def probe() -> float:
    """Run the probe once; its time in ms."""
    t0 = time.perf_counter()
    for i in range(240):
        d = {k: (i * j) % 7 / 3.0 for j, k in enumerate(_KEYS)}
        sorted(d.items(), key=lambda kv: kv[1])
    for _ in range(48):
        sq = (_A * _A).sum(1)[:, None] + (_B * _B).sum(1)[None, :] - 2.0 * (_A @ _B.T)
        np.exp(-0.5 * sq).sum(1)
    return (time.perf_counter() - t0) * 1e3


def scale(probes: list[float]) -> float:
    """The factor from measured to reference time, given the probes run
    around a span."""
    return PROBE_MS / statistics.median(probes)


def scaled(times: list[float], probes: list[float]) -> np.ndarray:
    """Scale a sequence of spans, ``times[i]`` having run between
    ``probes[i]`` and ``probes[i + 1]``, each by the median of the two
    probes on either side of it: a single probe is itself timed on a
    noisy host."""
    assert len(probes) == len(times) + 1
    return np.array([t * scale(probes[max(0, i - 1):i + 3]) for i, t in enumerate(times)])
