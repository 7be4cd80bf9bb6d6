"""KMeans: the iterative CPU-bound ML workload (Lloyd's algorithm).

DataFrame-only: assignment is a closed-form ``least(...)`` expression
over the (small, driver-held) centroid list, update is a groupBy
average — one narrow map plus one tiny-shuffle aggregate per
iteration, the exact HiBench KMeans stage shape.
"""
from __future__ import annotations

import numpy as np
from pyspark import StorageLevel
from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def _dims(points: DataFrame) -> list[str]:
    return [c for c in points.columns if c.startswith("x")]


def assign(points: DataFrame, centroids: np.ndarray) -> DataFrame:
    """Add a ``cluster`` column: index of the nearest centroid."""
    dims = _dims(points)
    dist_cols = []
    for ci, c in enumerate(centroids):
        d = sum((F.col(dims[j]) - float(c[j])) ** 2 for j in range(len(dims)))
        dist_cols.append(F.struct(d.alias("d"), F.lit(ci).alias("i")))
    return points.withColumn("cluster", F.least(*dist_cols)["i"])


def lloyd_step(points: DataFrame, centroids: np.ndarray) -> np.ndarray:
    """One Lloyd iteration: returns the updated centroid matrix."""
    dims = _dims(points)
    rows = (
        assign(points, centroids)
        .groupBy("cluster")
        .agg(*[F.avg(c).alias(c) for c in dims], F.count("*").alias("n"))
        .collect()
    )
    new = centroids.copy()
    for r in rows:
        new[r["cluster"]] = [r[c] for c in dims]
    return new


def kmeans(points: DataFrame, *, k: int = 4, iterations: int = 5, seed: int = 0) -> np.ndarray:
    """Run Lloyd's algorithm; returns final (k, dim) centroids."""
    dims = _dims(points)
    init = points.limit(10 * k).toPandas()[dims].to_numpy()
    rng = np.random.default_rng(seed)
    centroids = init[rng.choice(len(init), size=k, replace=False)]
    owned = points.storageLevel == StorageLevel.NONE  # a caller's cache stays
    cached = points.cache()
    try:
        for _ in range(iterations):
            centroids = lloyd_step(cached, centroids)
    finally:
        if owned:
            cached.unpersist()
    return centroids
