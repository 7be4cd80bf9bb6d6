"""Logistic regression via full-batch gradient descent.

Each iteration is one narrow map (per-row gradient contribution as a
closed-form column expression) plus a tiny aggregate — the HiBench LR
shape (iterative, CPU-bound, cache-friendly). Matches the NumPy
reference in tests bit-for-bit up to float tolerance because both run
the same deterministic update.
"""
from __future__ import annotations

import numpy as np
from pyspark import StorageLevel
from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def _dims(df: DataFrame) -> list[str]:
    return [c for c in df.columns if c.startswith("x")]


def gradient(df: DataFrame, w: np.ndarray) -> np.ndarray:
    """∇ of the mean logistic loss at weights ``w``."""
    dims = _dims(df)
    z = sum(F.col(c) * float(w[i]) for i, c in enumerate(dims))
    p = F.lit(1.0) / (F.lit(1.0) + F.exp(-z))
    err = p - F.col("label")
    row = df.agg(
        *[F.avg(err * F.col(c)).alias(c) for c in dims]
    ).collect()[0]
    return np.array([row[c] for c in dims])


def logistic_regression(
    df: DataFrame, *, iterations: int = 10, lr: float = 0.5
) -> np.ndarray:
    """Train weights by ``iterations`` full-batch GD steps."""
    dims = _dims(df)
    w = np.zeros(len(dims))
    owned = df.storageLevel == StorageLevel.NONE  # a caller's cache stays
    cached = df.cache()
    try:
        for _ in range(iterations):
            w = w - lr * gradient(cached, w)
    finally:
        if owned:
            cached.unpersist()
    return w
