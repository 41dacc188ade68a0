"""Tests for the dataset registry and Spark corpus IO."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.embeddings.corpus import make_corpus
from repro.embeddings.datasets import (
    DATASETS,
    FAMILIES,
    corpus_to_pandas,
    corpus_to_spark,
    dev_queries,
    load_dataset,
    nq_queries,
    trec_queries,
)
from repro.oracle import assert_equivalent


class TestRegistry:
    def test_all_names_resolve_to_families(self):
        for spec in DATASETS.values():
            assert spec.family in FAMILIES
            assert spec.n <= FAMILIES[spec.family].master_n

    def test_subsets_are_prefixes_of_master(self):
        small = load_dataset("MSL-2k")
        bigger = load_dataset("MSL-10k")
        assert np.array_equal(small.emb, bigger.emb[:2000])

    def test_load_deterministic(self):
        a = load_dataset("MSL-2k")
        b = load_dataset("MSL-2k")
        assert np.array_equal(a.emb, b.emb)

    def test_sizes(self):
        assert load_dataset("MSL-2k").n == 2000

    def test_families_differ(self):
        # WIKI and MSL are distinct collections (different seed/profile).
        msl = load_dataset("MSL-2k")
        wiki = load_dataset("WIKI-200k")
        assert not np.array_equal(msl.emb, wiki.emb[:2000])

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            load_dataset("nope")


class TestQueryWorkloads:
    def test_dev_queries_binary(self):
        qs = dev_queries(load_dataset("MSL-2k"), 20)
        assert qs.n == 20 and qs.qrels is None

    def test_trec_queries_graded_default_43(self):
        qs = trec_queries(load_dataset("MSL-2k"))
        assert qs.n == 43 and qs.qrels is not None

    def test_nq_queries(self):
        qs = nq_queries(load_dataset("MSL-2k"), 10)
        assert qs.n == 10

    def test_workloads_deterministic(self):
        c = load_dataset("MSL-2k")
        assert np.array_equal(dev_queries(c, 5).emb, dev_queries(c, 5).emb)


class TestSparkIO:
    def test_pandas_conversion(self, corpus_small):
        pdf = corpus_to_pandas(corpus_small)
        assert list(pdf.columns) == ["id", "emb"] and len(pdf) == corpus_small.n

    def test_spark_round_trip(self, spark, corpus_small):
        """The corpus comes back from Spark with Arrow on and with it off
        (``createDataFrame`` takes no ndarray rows without Arrow)."""
        key = "spark.sql.execution.arrow.pyspark.enabled"
        before = spark.conf.get(key)
        try:
            for arrow in ("true", "false"):
                spark.conf.set(key, arrow)
                pdf = corpus_to_spark(spark, corpus_small).toPandas()
                ids = pdf["id"].to_numpy(dtype=np.int64)
                mat = np.vstack(pdf["emb"].map(np.asarray).to_numpy()).astype(np.float32)
                order = np.argsort(ids)
                assert np.array_equal(ids[order], corpus_small.ids), arrow
                assert np.allclose(mat[order], corpus_small.emb, atol=1e-6), arrow
        finally:
            spark.conf.set(key, before)

    def test_spark_schema(self, spark, corpus_small):
        df = corpus_to_spark(spark, corpus_small)
        assert [(f.name, f.dataType.simpleString()) for f in df.schema.fields] == [
            ("id", "bigint"), ("emb", "array<float>")]

    def test_id_groups_match_duckdb_oracle(self, spark, corpus_small):
        """Spark groupBy over the corpus frame == DuckDB aggregation over its
        pandas twin (result oracle on the corpus frames)."""
        df = corpus_to_spark(spark, corpus_small)
        got = df.groupBy((F.col("id") % 8).alias("g")).agg(
            F.count("*").alias("n"), F.max("id").alias("top"))
        pdf = corpus_to_pandas(corpus_small).drop(columns=["emb"])
        assert_equivalent(
            got,
            "SELECT id % 8 AS g, COUNT(*) AS n, MAX(id) AS top FROM corpus GROUP BY g",
            corpus=pdf,
        )
