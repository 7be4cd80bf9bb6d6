"""Profile the real PySpark HiBench-lite workloads and print the measured
byte/time ratios next to the simulator profile constants they calibrate
(DESIGN.md §2 substitution).

Usage: ``python -m repro.workloads [--sf 0.01]``.
"""
import argparse
import os

os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    "--master local[*] --conf spark.driver.host=127.0.0.1 "
    "--conf spark.ui.enabled=false pyspark-shell",
)

from pyspark.sql import SparkSession  # noqa: E402

from repro.simcluster.profile import PROFILES  # noqa: E402
from repro.workloads.runner import WORKLOAD_NAMES, run_workload  # noqa: E402

if __name__ == "__main__":
    ap = argparse.ArgumentParser(prog="python -m repro.workloads")
    ap.add_argument("--sf", type=float, default=0.01)
    args = ap.parse_args()
    spark = (
        SparkSession.builder.appName("profile-workloads")
        .config("spark.sql.shuffle.partitions", "16")
        .getOrCreate()
    )
    print(f"{'workload':<26}{'wall_s':>8}{'input_mb':>10}{'shuffle_mb':>11}"
          f"{'meas_ratio':>11}{'profile_ratio':>14}")
    for name in WORKLOAD_NAMES:
        m = run_workload(spark, name, sf=args.sf)
        prof = PROFILES.get(name)
        prof_ratio = sum(s.shuffle_frac for s in prof.stages) if prof else float("nan")
        print(f"{name:<26}{m.wall_s:>8.2f}{m.input_mb:>10.2f}{m.shuffle_mb:>11.2f}"
              f"{m.shuffle_frac:>11.2f}{prof_ratio:>14.2f}")
    spark.stop()
