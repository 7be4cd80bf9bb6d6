"""Oracle-checked tests for the batch HiBench-lite workloads:
WordCount, Sort/TeraSort, Bayes (DuckDB oracle where SQL-expressible,
NumPy/pandas references otherwise)."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro import synth_data
from repro.oracle import assert_equivalent
from repro.workloads import bayes, sortbench, wordcount


class TestWordCount:
    def test_oracle_equivalence(self, spark):
        text = synth_data.text_corpus(spark, n_lines=2000, seed=1)
        out = wordcount.wordcount(text)
        assert_equivalent(
            out,
            """
            SELECT word, COUNT(*) AS cnt
            FROM (SELECT UNNEST(STRING_SPLIT(line, ' ')) AS word FROM text)
            WHERE word <> ''
            GROUP BY word
            """,
            text=text,
        )

    def test_total_count_preserved(self, spark):
        text = synth_data.text_corpus(spark, n_lines=500, words_per_line=6, seed=2)
        total = wordcount.wordcount(text).agg(F.sum("cnt")).collect()[0][0]
        assert total == 500 * 6


class TestSort:
    def test_sorted_output(self, spark):
        recs = synth_data.kv_records(spark, n=3000, seed=4)
        out = sortbench.sort_records(recs).toPandas()
        assert (np.diff(out.key.to_numpy()) >= 0).all()

    def test_multiset_preserved(self, spark):
        recs = synth_data.kv_records(spark, n=2000, seed=5)
        out = sortbench.sort_records(recs)
        assert_equivalent(out, "SELECT key, payload FROM recs", recs=recs)


class TestTeraSort:
    def test_partitions_are_sorted_ranges(self, spark):
        recs = synth_data.kv_records(spark, n=5000, seed=6)
        out = sortbench.terasort(recs, partitions=8)
        key_parts = out.select("key").rdd.glom().collect()
        non_empty = [p for p in key_parts if p]
        for p in non_empty:
            ks = [r.key for r in p]
            assert ks == sorted(ks)
        # disjoint, ordered ranges across partitions
        his = [p[-1].key for p in non_empty]
        los = [p[0].key for p in non_empty]
        for i in range(len(non_empty) - 1):
            assert his[i] <= los[i + 1]

    def test_multiset_preserved(self, spark):
        recs = synth_data.kv_records(spark, n=2000, seed=7)
        out = sortbench.terasort(recs, partitions=4)
        assert_equivalent(out, "SELECT key, payload FROM recs", recs=recs)


class TestBayes:
    def test_counts_match_pandas(self, spark):
        docs = synth_data.labeled_corpus(spark, n_docs=400, seed=8)
        got = bayes.class_word_counts(docs).toPandas()
        pdf = docs.toPandas()
        exploded = pdf.assign(word=pdf.doc.str.split(" ")).explode("word")
        expect = (
            exploded[exploded.word != ""]
            .groupby(["label", "word"]).size().reset_index(name="cnt")
        )
        got_s = got.sort_values(["label", "word"]).reset_index(drop=True)
        exp_s = expect.sort_values(["label", "word"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got_s, exp_s, check_dtype=False)

    def test_log_probs_normalize(self, spark):
        docs = synth_data.labeled_corpus(spark, n_docs=300, seed=9)
        model = bayes.train_naive_bayes(docs, alpha=1.0).toPandas()
        vocab = model.word.nunique()
        # with smoothing over the full vocab, Σ_w P(w|c) <= 1 per class
        # (strictly < 1 when the class misses some vocab words)
        for _, grp in model.groupby("label"):
            assert np.exp(grp.log_prob).sum() <= 1.0 + 1e-9

    def test_log_probs_match_reference(self, spark):
        docs = synth_data.labeled_corpus(spark, n_docs=200, seed=10)
        model = bayes.train_naive_bayes(docs, alpha=1.0).toPandas()
        pdf = docs.toPandas()
        exploded = pdf.assign(word=pdf.doc.str.split(" ")).explode("word")
        counts = exploded.groupby(["label", "word"]).size()
        totals = exploded.groupby("label").size()
        vocab = exploded.word.nunique()
        for _, row in model.sample(20, random_state=0).iterrows():
            expect = np.log(
                (counts[(row.label, row.word)] + 1.0) / (totals[row.label] + vocab)
            )
            assert row.log_prob == pytest.approx(expect, rel=1e-9)
