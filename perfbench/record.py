"""Run the benchmark over several seeds and summarise it.

Usage (from the repository root)::

    python3 perfbench/record.py --seeds 10 [--workloads ours-hibench ...] [--append LABEL]

Runs every workload once per seed (1, 2, ...) untraced and once traced at
the first seed, one run at a time, and prints for each end-to-end metric its
median and the spread between its quartiles as a share of the median
(what a regression bound is compared with). ``--append`` adds the
medians and the traced run's per-layer metrics as a new point of
``perfbench/trajectory.json``.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRAJECTORY = os.path.join(HERE, "trajectory.json")


def run(workload: str, seed: int, trace: int, seconds: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n"
                 f"{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    env = json.loads(next(line for line in proc.stdout.splitlines()
                          if line.startswith("env "))[4:])
    print(f"  {workload} seed {seed} trace {trace}: {wall:.1f} s", flush=True)
    return {"wall_s": wall, "env": env, **out}


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--append", metavar="LABEL")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = range(1, args.seeds + 1)

    point = {"label": args.append, "seeds": list(seeds), "end_to_end": {}, "per_layer": {}}
    for w in args.workloads:
        runs = [run(w, s, 0, bench["run_seconds"]) for s in seeds]
        traced = run(w, seeds[0], 1, bench["run_seconds"])
        point["env"] = runs[0]["env"]
        point["end_to_end"][w] = {
            k: summary([r["metrics"][k]["value"] for r in runs]) for k in bounds}
        point["end_to_end"][w]["wall_s"] = summary([r["wall_s"] for r in runs])
        point["per_layer"][w] = {k: v["value"] for k, v in traced["metrics"].items()}
        print(f"== {w}")
        for k, s in point["end_to_end"][w].items():
            flag = "" if k not in bounds or s["spread"] <= bounds[k] / 3 else \
                "  (spread above a third of the bound)"
            print(f"   {k:16s} median {s['median']:12.6g}  spread {s['spread']:.4f}{flag}")
    if args.append:
        with open(TRAJECTORY) as f:
            trajectory = json.load(f)
        trajectory["points"].append(point)
        with open(TRAJECTORY, "w") as f:
            json.dump(trajectory, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
