"""WordCount: the canonical shuffle-light aggregation workload."""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def wordcount(text: DataFrame) -> DataFrame:
    """Count word occurrences in a corpus of lines.

    Input: one ``line`` string column. Output: ``word, cnt`` —
    flatMap(split) → groupBy → count, the exact HiBench WordCount shape.
    """
    return (
        text.select(F.explode(F.split(F.col("line"), " ")).alias("word"))
        .where(F.col("word") != "")
        .groupBy("word")
        .agg(F.count("*").alias("cnt"))
    )
