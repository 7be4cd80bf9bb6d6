"""Run the real PySpark HiBench-lite workloads and print, for each, the
shuffle/input ratio read from Spark's stage counters next to the ratio
of its hand-set simulator profile (DESIGN.md §2 substitution). Nothing
is written back: the profiles stay as they are. The measured input is
compressed Parquet bytes read, while a profile counts uncompressed MB of
its dataset, so the two ratios are not the same quantity.

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
        # the tests' plan: every join shuffles both sides
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    print(f"{'workload':<26}{'wall_s':>8}{'stages':>7}{'input_mb':>10}{'shuffle_mb':>11}"
          f"{'meas_ratio':>11}{'profile_ratio':>14}{'meas/profile':>13}")
    for name in WORKLOAD_NAMES:
        m = run_workload(spark, name, sf=args.sf)
        prof_ratio = sum(s.shuffle_frac for s in PROFILES[name].stages)
        print(f"{name:<26}{m.wall_s:>8.2f}{len(m.stages):>7}{m.input_mb:>10.3f}{m.shuffle_mb:>11.3f}"
              f"{m.shuffle_frac:>11.3f}{prof_ratio:>14.2f}{m.shuffle_frac / prof_ratio:>13.2f}")
    spark.stop()
