"""Tuner benchmark: suggest latency, tuning throughput and tuning quality.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ours-hibench --seed 1 --seconds 40 --trace 0

Each tuning task is a closed loop with one client: the next
``suggest()`` is issued only after the previous simulated execution has
been observed. Everything runs in this one process with the BLAS pinned
to one thread. The work of a run is fixed by the workload and the seed,
so ``best_obj_ratio`` and the call counts repeat exactly; ``--seconds``
is the nominal length of a run, which the workloads' budgets are sized
to.

``--trace 0`` prints the end-to-end metrics. Every time among them is
scaled to the reference speed of a fixed probe run next to it
(``speed``), because the host's own speed moves by more than any bound;
the times as measured are printed above the result.

- ``suggest_ms.p50``/``.p90``: latency of ``tuner.suggest()`` over every
  suggestion of the run (the sample count and how many lie beyond p90
  are printed above the result);
- ``iters_per_s``: iterations (suggest, simulated run, observe) per
  second;
- ``best_obj_ratio``: geometric mean over the tasks of the best feasible
  objective over the default config's objective;
- ``setup_s``: the median time of the imports, over this process and
  four fresh interpreters, plus the median of the workload's timed
  set-ups (spaces, reference runs, tuners and, on ``meta-warmstart``,
  the source histories and the meta-learner);
- ``suggest_rss_mb.p50``: median over suggestions of the resident-set
  peak reached during the suggestion.

``--trace 1`` runs the task set once with spans recorded around each
layer's public calls (and around the meta-learner's fit in set-up) and
prints the per-layer metrics; the spans go to ``.perfbench-out/``. The
last line of standard output is one JSON object; the exit code is 1
when an output check fails: a ``suggest()`` that raised, a config off
the space's grid or a non-finite execution result. Infeasible
incumbents are reported, not failed.
"""
import os
import time

T_START = time.perf_counter()
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:  # before NumPy is imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import repro  # noqa: E402

if not os.path.abspath(repro.__file__).startswith(os.path.join(ROOT, "src", "")):
    sys.exit(f"repro was imported from {repro.__file__}, not from {ROOT}/src")

import spans  # noqa: E402
import speed  # noqa: E402
from repro.core.controller import OnlineTuner  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

IMPORT_S = time.perf_counter() - T_START
IMPORT_PROBES = [speed.probe() for _ in range(3)]
if sys.argv[1:] == ["--import-time"]:  # a fresh interpreter's import time, for setup_s
    print(IMPORT_S * speed.scale(IMPORT_PROBES))
    sys.exit(0)

END_TO_END = {
    "suggest_ms.p50": "ms", "suggest_ms.p90": "ms", "iters_per_s": "1/s",
    "best_obj_ratio": "ratio", "setup_s": "s", "suggest_rss_mb.p50": "MB",
}
PER_LAYER = {
    "simcluster.run.calls": "count", "simcluster.run.busy_ms": "ms",
    "config_space.sample_random.busy_ms": "ms",
    "config_space.from_unit.calls": "count", "config_space.to_unit.calls": "count",
    "config_space.busy_ms": "ms",
    "gp.fit.calls": "count", "gp.fit.busy_ms": "ms", "gp.fit.rows": "count",
    "gp.fit.outside_generator_share": "ratio",
    "gp.predict.calls": "count", "gp.predict.busy_ms": "ms", "gp.predict.rows": "count",
    "bo.X_unit.calls": "count", "bo.X_unit.busy_ms": "ms",
    "acquisition.busy_ms": "ms",
    "subspace.update_importance.calls": "count", "subspace.refit_share": "ratio",
    "forest.fit.busy_ms": "ms", "fanova.busy_ms": "ms",
    "agd.step.calls": "count", "agd.step.busy_ms": "ms", "agd.win_share": "ratio",
    "generator.suggest.calls": "count", "generator.suggest.self_ms": "ms",
    "controller.suggest.self_ms": "ms", "controller.stopped_share": "ratio",
    "objective.feasible_share": "ratio",
    "meta.fit.busy_ms": "ms", "meta.ensemble_predict.calls": "count",
    "meta.ensemble_predict.busy_ms": "ms", "meta.surrogate_distance.calls": "count",
    "gbm.fit.busy_ms": "ms",
    "baselines.CherryPick.suggest.busy_ms": "ms",
    "baselines.Tuneful.suggest.busy_ms": "ms",
    "baselines.LOCAT.suggest.busy_ms": "ms",
    "trace.overhead_pct": "%",
}
CALIBRATION_ITERS = 8  # paired untraced/traced iterations for trace.overhead_pct
IMPORT_REPS = 5        # import times behind setup_s: this process and four children


def environment() -> dict:
    """What the timings depend on besides the code."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    conf = blas.get("openblas configuration", "")
    max_threads = next((w.split("=", 1)[1] for w in conf.split()
                        if w.startswith("MAX_THREADS=")), "unknown")
    return {
        "nproc": os.cpu_count(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "max_threads": max_threads},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def reset_peak_rss() -> None:
    """Restart the kernel's resident-set high-water mark (VmHWM)."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


class Checks:
    """Output checks; any failure makes the run incorrect."""

    def __init__(self) -> None:
        self.errors: list[str] = []

    def fail(self, msg: str) -> None:
        if len(self.errors) < 20:
            print(f"CHECK FAILED: {msg}", file=sys.stderr)
        self.errors.append(msg)

    def execution(self, task, it: int, config: dict, result) -> None:
        space = task.tuner.space
        if space.clip(config) != config:
            self.fail(f"{task.name} iteration {it}: config is off the space's grid")
        values = (result.runtime_s, result.mem_gbh, result.cpu_coreh, result.datasize_mb)
        if not all(math.isfinite(v) for v in values):
            self.fail(f"{task.name} iteration {it}: non-finite ExecResult {values}")


class Loop:
    """Per-run counters of the closed tuning loops. Times are kept as
    measured; ``speed.scaled`` scales them by the probes around them."""

    def __init__(self) -> None:
        self.latencies: list[float] = []     # ms of each suggest()
        self.iterations: list[float] = []    # s of each suggest + run + observe
        self.probes: list[float] = []        # ms: one before the first iteration, one after each
        self.rss_mb: list[float] = []        # resident-set peak of each suggest()
        self.attempted = self.failed = self.feasible = 0
        self.online = self.stopped = 0       # OnlineTuner suggestions / served while stopped
        self.agd = self.agd_wins = 0


def run_task(task, tracer, loop: Loop, checks: Checks, its=None) -> None:
    """Iterations ``its`` (default: the whole budget) of one closed loop,
    with the probe (``speed``) run before the first and after each."""
    tuner = task.tuner
    if not loop.probes:
        loop.probes.append(speed.probe())
    online = isinstance(tuner, OnlineTuner)
    for it in range(task.budget) if its is None else its:
        loop.attempted += 1
        if online:
            loop.online += 1
            loop.stopped += tuner.stopped
        first_span = len(tracer.spans)
        reset_peak_rss()
        t0 = time.perf_counter()
        try:
            config = tuner.suggest()
        except Exception as exc:  # counted and failed; the loop goes on
            traceback.print_exc()
            loop.failed += 1
            checks.fail(f"{task.name} iteration {it}: suggest() raised {exc!r}")
            continue
        suggest_ms = (time.perf_counter() - t0) * 1e3
        rss_mb = peak_rss_mb()
        t1 = time.perf_counter()
        result = task.evaluator.evaluate(config, it)
        t2 = time.perf_counter()
        with tracer.paused():
            checks.execution(task, it, config, result)
        prev_best = tuner.history.best() if tracer.active else None
        t3 = time.perf_counter()
        tuner.observe(config, result)
        loop.iterations.append(suggest_ms / 1e3 + (t2 - t1) + (time.perf_counter() - t3))
        loop.latencies.append(suggest_ms)
        loop.rss_mb.append(rss_mb)
        loop.probes.append(speed.probe())
        obs = tuner.history.observations[-1]
        loop.feasible += obs.feasible
        if tracer.active and any(s[0] == "agd.step" for s in tracer.spans[first_span:]):
            loop.agd += 1
            loop.agd_wins += obs.feasible and (
                prev_best is None or not prev_best.feasible
                or obs.objective < prev_best.objective)


def run_tasks(tasks, tracer, loop: Loop, checks: Checks) -> None:
    for i, task in enumerate(tasks):
        tracer.task = i
        run_task(task, tracer, loop, checks)


def best_obj_ratio(tasks) -> float:
    """Geometric mean over the tasks of the incumbent's objective divided
    by the reference config's; each incumbent is reported, and flagged
    when it is infeasible."""
    logs = []
    for task in tasks:
        best = task.tuner.history.best()
        ratio = best.objective / task.reference_objective
        logs.append(math.log(ratio))
        flag = "" if best.feasible else "  (INFEASIBLE incumbent)"
        print(f"task {task.name}: best/reference objective {ratio:.4f}{flag}")
    return math.exp(sum(logs) / len(logs))


def import_seconds() -> float:
    """Median import time, scaled, over this process and fresh
    interpreters."""
    times = [IMPORT_S * speed.scale(IMPORT_PROBES)]
    for _ in range(IMPORT_REPS - 1):
        child = subprocess.run([sys.executable, os.path.abspath(__file__), "--import-time"],
                               capture_output=True, text=True, check=True, timeout=60)
        times.append(float(child.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def timed_setup(workload, seed: int, smoke: bool):
    """One untraced set-up and its scaled seconds. Probes run before and
    after it and between the iterations of any loop it runs, which cut
    it into segments that are scaled like the loop's iterations."""
    probes, segments = [speed.probe()], []
    t0 = [time.perf_counter()]

    def tick() -> None:
        segments.append(time.perf_counter() - t0[0])
        probes.append(speed.probe())
        t0[0] = time.perf_counter()

    tasks = workload.setup(seed, smoke, False, tick)
    tick()
    return tasks, float(speed.scaled(segments, probes).sum())


def calibrate_overhead(plain, traced, tracer) -> float:
    """Tracing cost as extra wall time, in %: two fresh copies of one
    task run the same iterations in lock-step, one traced, taking turns
    at going first."""
    seconds = {False: 0.0, True: 0.0}
    for it in range(min(CALIBRATION_ITERS, plain.budget)):
        pair = ((plain, False), (traced, True))
        for task, on in pair[::-1] if it % 2 else pair:
            tracer.active = on
            t0 = time.perf_counter()
            run_task(task, tracer, Loop(), Checks(), its=range(it, it + 1))
            seconds[on] += time.perf_counter() - t0
    tracer.active = False
    tracer.clear()
    return 100.0 * (seconds[True] / seconds[False] - 1.0)


def layer_report(tracer, loop: Loop, overhead_pct: float) -> dict:
    found = spans.layer_metrics(tracer.spans)
    ratios = {
        "gp.fit.outside_generator_share": spans.parent_share(
            tracer.spans, "gp.fit", "controller.suggest", "gp.fit"),
        "subspace.refit_share": spans.parent_share(
            tracer.spans, "forest.fit", "subspace.update_importance",
            "subspace.update_importance"),
        "agd.win_share": loop.agd_wins / loop.agd if loop.agd else 0.0,
        "controller.stopped_share": loop.stopped / loop.online if loop.online else 0.0,
        "objective.feasible_share": loop.feasible / loop.attempted,
        "trace.overhead_pct": overhead_pct,
    }
    return {name: ratios.get(name, found.get(name, 0)) for name in PER_LAYER}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny budgets: every task stops after a few iterations")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))

    tracer = spans.Tracer()
    loop, checks = Loop(), Checks()
    if args.trace:
        tracer.install()
        overhead = calibrate_overhead(workload.setup(args.seed, args.smoke, True)[0],
                                      workload.setup(args.seed, args.smoke, True)[0], tracer)
        tracer.active, tracer.roots = True, {"meta.fit"}  # of set-up, only the meta-learner
        tasks = workload.setup(args.seed, args.smoke, True)
        tracer.roots = None
        run_tasks(tasks, tracer, loop, checks)
        tracer.active = False
        tracer.uninstall()
        metrics = layer_report(tracer, loop, overhead)
        units = PER_LAYER
    else:
        setup_times = []
        for _ in range(workload.setup_reps):
            tasks, seconds = timed_setup(workload, args.seed, args.smoke)
            setup_times.append(seconds)
        setup_s = import_seconds() + statistics.median(setup_times)
        run_tasks(tasks, tracer, loop, checks)
        lat = speed.scaled(loop.latencies, loop.probes)
        p90 = float(np.percentile(lat, 90))
        print(f"suggestions timed: {len(lat)} ({int((lat > p90).sum())} beyond p90); "
              f"as measured: p50 {np.percentile(loop.latencies, 50):.1f} ms, "
              f"{loop.attempted / sum(loop.iterations):.3f} iterations/s; "
              f"probe median {statistics.median(loop.probes):.3f} ms "
              f"(reference {speed.PROBE_MS} ms)")
        print(f"feasible executions: {loop.feasible} of {loop.attempted}")
        metrics = {
            "suggest_ms.p50": float(np.percentile(lat, 50)),
            "suggest_ms.p90": p90,
            "iters_per_s": loop.attempted / speed.scaled(loop.iterations, loop.probes).sum(),
            "best_obj_ratio": best_obj_ratio(tasks),
            "setup_s": setup_s,
            "suggest_rss_mb.p50": float(np.percentile(loop.rss_mb, 50)),
        }
        units = END_TO_END

    result = {
        "correct": not checks.errors,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-trace{args.trace}")
    with open(stem + ".json", "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "env": env,
                   "tasks": [t.name for t in tasks], **result,
                   "samples": {"suggest_ms": loop.latencies, "iteration_s": loop.iterations,
                               "probe_ms": loop.probes}}, f)
    if args.trace:
        tracer.write(stem + ".spans.tsv.gz")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
