"""Smoke test of the benchmark itself, at tiny budgets.

Usage (from the repository root): ``python3 perfbench/smoke.py``.

Checks that every workload prints every end-to-end metric with its unit,
with every output check passed and no ``suggest()`` failed, and that the
traced run prints every per-layer metric; that two runs at
one seed give the same ``best_obj_ratio``, and two traced runs the same
counts and shares; and that the benchmark fails, without a result, in a
directory that holds only ``BENCHMARK.json`` and the benchmark's own
files. Exits 1 on the first failed check.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT_S = 180


def run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def result(workload: str, seed: int, trace: int) -> dict:
    proc = run(["--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace), "--smoke"])
    if proc.returncode != 0:
        sys.exit(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if (set(out) != {"correct", "attempted", "failed", "metrics"} or not out["correct"]
            or out["failed"] or out["attempted"] < 1):
        sys.exit(f"{workload} trace={trace}: bad result {out}")
    return out


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    first = {}
    for w in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            out = result(w, 0, trace)
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            if got != expected[trace]:
                sys.exit(f"{w} trace={trace}: metrics {got} != {expected[trace]}")
            first[w, trace] = out["metrics"]
            print(f"ok  {w} trace={trace}: {len(got)} metrics, {out['attempted']} iterations")

    w = "ours-hibench"
    if result(w, 0, 0)["metrics"]["best_obj_ratio"] != first[w, 0]["best_obj_ratio"]:
        sys.exit(f"{w}: best_obj_ratio differs between two runs at one seed")
    again = result(w, 0, 1)["metrics"]
    for k in again:
        if (k.endswith(".calls") or k.endswith("_share")) and again[k] != first[w, 1][k]:
            sys.exit(f"{w}: {k} differs between two traced runs at one seed")
    print(f"ok  {w}: best_obj_ratio and traced counts repeat at one seed")

    bare = os.path.join(ROOT, ".perfbench-out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run(["--workload", w, "--seed", "0", "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        sys.exit("the benchmark ran without the program's sources")
    print("ok  without the program's sources: exit", proc.returncode, "and no result")


if __name__ == "__main__":
    main()
