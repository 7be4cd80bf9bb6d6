"""HiBench-lite workloads: real PySpark DataFrame implementations of
the paper's benchmark tasks (§6.1: Bayes, KMeans, NWeight, WordCount,
PageRank, TeraSort — plus Sort, LR, SVD used in the meta-learning
experiments, and the four production Spark SQL tasks of Table 2).

Each module exposes pure functions ``SparkSession/DataFrame → DataFrame``
checked against DuckDB or NumPy references in tests; ``runner`` runs
them in local mode and reads each run's stage counters from Spark, and
``python -m repro.workloads`` prints the measured shuffle/input ratios
next to the hand-set ones of :mod:`repro.simcluster.profile`.
"""
