"""Tests for the synthetic data generators (provided + HiBench-lite)."""
from repro import synth_data


class TestTpchLite:
    def test_lineitem_rows_and_schema(self, spark):
        df = synth_data.lineitem(spark, sf=0.001)
        assert df.count() == 6000
        assert {"l_orderkey", "l_extendedprice", "l_discount"} <= set(df.columns)

    def test_orders_keys_sequential(self, spark):
        pdf = synth_data.orders(spark, sf=0.001).toPandas()
        assert pdf.o_orderkey.min() == 1 and pdf.o_orderkey.is_unique

    def test_deterministic_seed(self, spark):
        a = synth_data.lineitem(spark, sf=0.0005, seed=7).toPandas()
        b = synth_data.lineitem(spark, sf=0.0005, seed=7).toPandas()
        assert a.equals(b)


class TestHiBenchInputs:
    def test_text_corpus(self, spark):
        pdf = synth_data.text_corpus(spark, n_lines=200, words_per_line=5).toPandas()
        assert len(pdf) == 200
        assert all(len(line.split()) == 5 for line in pdf.line)

    def test_text_zipf_words(self, spark):
        pdf = synth_data.text_corpus(spark, n_lines=500).toPandas()
        words = pdf.line.str.split(" ").explode()
        counts = words.value_counts()
        assert counts.iloc[0] > 10 * counts.iloc[-1]

    def test_labeled_corpus_classes(self, spark):
        pdf = synth_data.labeled_corpus(spark, n_docs=300, n_classes=3).toPandas()
        assert set(pdf.label.unique()) <= {0, 1, 2}
        assert pdf.label.nunique() == 3

    def test_kv_records(self, spark):
        pdf = synth_data.kv_records(spark, n=1000).toPandas()
        assert len(pdf) == 1000
        assert pdf.key.dtype.kind == "i"

    def test_edges_no_self_loops(self, spark):
        pdf = synth_data.edge_list(spark, n_nodes=50, n_edges=400).toPandas()
        assert (pdf.src != pdf.dst).all()
        assert not pdf.duplicated(["src", "dst"]).any()
        assert (pdf.weight > 0).all()

    def test_edges_every_node_has_outedge(self, spark):
        pdf = synth_data.edge_list(spark, n_nodes=40, n_edges=100).toPandas()
        assert set(range(40)) <= set(pdf.src.unique())

    def test_points_shape(self, spark):
        pdf = synth_data.points(spark, n=500, dim=4).toPandas()
        assert list(pdf.columns) == ["x0", "x1", "x2", "x3"]
        assert len(pdf) == 500

    def test_labeled_points_separable(self, spark):
        pdf = synth_data.labeled_points(spark, n=800, dim=3).toPandas()
        assert set(pdf.label.unique()) == {0, 1}
        # both classes present in meaningful proportion
        assert 0.2 < pdf.label.mean() < 0.8
