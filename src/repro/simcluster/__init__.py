"""Spark cluster execution substrate.

The paper evaluates configurations by actually running periodic jobs on
Tencent's production resource groups and a 4-node HiBench cluster. A
single offline ``local[*]`` JVM cannot vary ``spark.executor.*``
parameters, and the experiment grid (7 tuners × 30 iterations × 10
seeds × many tasks) is days of real cluster time — so this package
provides the substitution documented in DESIGN.md §2: an analytic
cluster simulator over hand-set workload profiles. ``python -m
repro.workloads`` prints Spark's own stage counters from real runs of
the HiBench-lite workloads next to them; nothing is fitted to them.

- :mod:`repro.simcluster.profile`   — workload profiles + populations,
- :mod:`repro.simcluster.simulator` — (profile, config, datasize) → metrics,
- :mod:`repro.simcluster.eventlog`  — 75 event-log meta-features.
"""
from repro.simcluster.profile import WorkloadProfile, get_profile, PROFILES
from repro.simcluster.simulator import ClusterSimulator

__all__ = ["WorkloadProfile", "get_profile", "PROFILES", "ClusterSimulator"]
