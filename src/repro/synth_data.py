"""Synthetic OLAP data at a configurable scale factor.

SF=1.0 is roughly TPC-H SF1 (~1 GB across tables); tests and the
profiling runner use SF<=0.01. Generators are deterministic in ``seed``
so the DuckDB oracle sees identical input.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

_N_LINEITEM_PER_SF = 6_000_000
_N_ORDERS_PER_SF = 1_500_000
_N_CUSTOMER_PER_SF = 150_000
_N_PART_PER_SF = 200_000


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def lineitem(spark: SparkSession, *, sf: float = 0.01, seed: int = 0) -> DataFrame:
    n = max(1, int(_N_LINEITEM_PER_SF * sf))
    n_orders = max(1, int(_N_ORDERS_PER_SF * sf))
    n_part = max(1, int(_N_PART_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "l_orderkey": g.integers(1, n_orders + 1, n),
            "l_partkey": g.integers(1, n_part + 1, n),
            "l_linenumber": g.integers(1, 8, n),
            "l_quantity": g.integers(1, 51, n).astype("float64"),
            "l_extendedprice": (g.random(n) * 90000 + 900).round(2),
            "l_discount": (g.random(n) * 0.1).round(2),
            "l_tax": (g.random(n) * 0.08).round(2),
            "l_returnflag": g.choice(list("NRA"), n),
            "l_linestatus": g.choice(list("OF"), n),
            "l_shipdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2557, n), unit="D"),
        }
    )
    return spark.createDataFrame(pdf)


def orders(spark: SparkSession, *, sf: float = 0.01, seed: int = 1) -> DataFrame:
    n = max(1, int(_N_ORDERS_PER_SF * sf))
    n_cust = max(1, int(_N_CUSTOMER_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "o_orderkey": np.arange(1, n + 1),
            "o_custkey": g.integers(1, n_cust + 1, n),
            "o_orderstatus": g.choice(list("OFP"), n),
            "o_totalprice": (g.random(n) * 500000 + 1000).round(2),
            "o_orderdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2406, n), unit="D"),
            "o_orderpriority": g.choice(
                ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT", "5-LOW"], n
            ),
        }
    )
    return spark.createDataFrame(pdf)


def customer(spark: SparkSession, *, sf: float = 0.01, seed: int = 2) -> DataFrame:
    n = max(1, int(_N_CUSTOMER_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "c_custkey": np.arange(1, n + 1),
            "c_nationkey": g.integers(0, 25, n),
            "c_acctbal": (g.random(n) * 10000 - 1000).round(2),
            "c_mktsegment": g.choice(
                ["BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE"], n
            ),
        }
    )
    return spark.createDataFrame(pdf)


# ---------------------------------------------------------------------------
# HiBench-lite inputs (paper §6.1 workloads): text corpus (WordCount,
# Bayes), KV records (Sort/TeraSort), a power-law edge list (PageRank,
# NWeight), numeric points (KMeans, SVD) and labeled points (LR).
# ---------------------------------------------------------------------------

_VOCAB_SIZE = 1000


def _zipf_words(g: np.random.Generator, n: int, alpha: float = 1.2) -> np.ndarray:
    ranks = np.arange(1, _VOCAB_SIZE + 1)
    w = 1.0 / ranks**alpha
    w /= w.sum()
    ids = g.choice(ranks, size=n, p=w)
    return np.char.add("word", ids.astype(str))


def text_corpus(spark: SparkSession, *, n_lines: int, words_per_line: int = 8, seed: int = 10) -> DataFrame:
    """Lines of zipf-distributed words — WordCount/Bayes input."""
    g = _rng(seed)
    words = _zipf_words(g, n_lines * words_per_line).reshape(n_lines, words_per_line)
    lines = [" ".join(row) for row in words]
    return spark.createDataFrame(pd.DataFrame({"line": lines}))


def labeled_corpus(
    spark: SparkSession, *, n_docs: int, n_classes: int = 3, words_per_doc: int = 10, seed: int = 11
) -> DataFrame:
    """Class-conditional text — Bayes training input. Class c draws its
    words with a zipf shift so classes are separable."""
    g = _rng(seed)
    labels = g.integers(0, n_classes, n_docs)
    docs = []
    for c in labels:
        w = _zipf_words(g, words_per_doc, alpha=1.05 + 0.25 * c)
        docs.append(" ".join(w))
    return spark.createDataFrame(pd.DataFrame({"label": labels, "doc": docs}))


def kv_records(spark: SparkSession, *, n: int, payload_bytes: int = 10, seed: int = 12) -> DataFrame:
    """Random-key records — Sort/TeraSort input."""
    g = _rng(seed)
    keys = g.integers(0, 2**31, n)
    payload = np.char.add("p", g.integers(0, 10**payload_bytes, n).astype(str))
    return spark.createDataFrame(pd.DataFrame({"key": keys, "payload": payload}))


def edge_list(spark: SparkSession, *, n_nodes: int, n_edges: int, seed: int = 13) -> DataFrame:
    """Power-law-ish directed edges — PageRank/NWeight input. Dedup'd,
    no self-loops, and every node appears as a source at least once so
    iterative rank updates see no dangling sources."""
    g = _rng(seed)
    ranks = np.arange(1, n_nodes + 1)
    w = 1.0 / ranks**0.8
    w /= w.sum()
    src = g.choice(n_nodes, size=n_edges, p=w)
    dst = g.choice(n_nodes, size=n_edges, p=w)
    base = np.arange(n_nodes)  # guarantee coverage
    src = np.concatenate([src, base])
    dst = np.concatenate([dst, (base + 1) % n_nodes])
    pdf = pd.DataFrame({"src": src, "dst": dst, "weight": np.abs(_rng(seed + 1).random(len(src))) + 0.1})
    pdf = pdf[pdf.src != pdf.dst].drop_duplicates(["src", "dst"]).reset_index(drop=True)
    return spark.createDataFrame(pdf)


def points(spark: SparkSession, *, n: int, dim: int = 3, k: int = 4, seed: int = 14) -> DataFrame:
    """Gaussian blobs — KMeans/SVD input (columns x0..x{dim-1})."""
    g = _rng(seed)
    centers = g.random((k, dim)) * 10.0
    assign = g.integers(0, k, n)
    X = centers[assign] + g.normal(0.0, 0.5, (n, dim))
    return spark.createDataFrame(pd.DataFrame(X, columns=[f"x{i}" for i in range(dim)]))


def labeled_points(spark: SparkSession, *, n: int, dim: int = 3, seed: int = 15) -> DataFrame:
    """Linearly separable (noisy) labeled points — LR input."""
    g = _rng(seed)
    X = g.normal(0.0, 1.0, (n, dim))
    w = g.normal(0.0, 1.0, dim)
    y = (X @ w + g.normal(0.0, 0.3, n) > 0).astype("int64")
    pdf = pd.DataFrame(X, columns=[f"x{i}" for i in range(dim)])
    pdf["label"] = y
    return spark.createDataFrame(pdf)
