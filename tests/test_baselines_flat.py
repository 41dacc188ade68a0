"""Tests for the Flat (exact) baseline, incl. the DuckDB top-k oracle."""
import numpy as np
import pandas as pd
import pytest

from repro.baselines import FlatIndex
from repro.embeddings.corpus import exact_topk
from repro.oracle import assert_equivalent


class TestFlat:
    def test_matches_exact_topk(self, corpus_small, queries_small):
        idx = FlatIndex().fit(corpus_small.emb)
        truth = exact_topk(corpus_small.emb, queries_small.emb[:5], 10)
        for i in range(5):
            assert np.array_equal(idx.search(queries_small.emb[i], 10), truth[i])

    def test_custom_ids(self, corpus_small):
        ids = np.arange(corpus_small.n) * 2
        idx = FlatIndex().fit(corpus_small.emb, ids)
        got = idx.search(corpus_small.emb[5], 1)
        assert got[0] == 10

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_raises(self, corpus_small, queries_small, k):
        with pytest.raises(ValueError, match="k must be"):
            FlatIndex().fit(corpus_small.emb).search(queries_small.emb[0], k)

    def test_k_larger_than_corpus(self):
        emb = np.eye(4, dtype=np.float32)
        idx = FlatIndex().fit(emb)
        assert idx.search(emb[0], 100).shape == (4,)

    def test_misaligned_ids_raise(self, corpus_small):
        with pytest.raises(ValueError):
            FlatIndex().fit(corpus_small.emb, np.arange(3))

    def test_nbytes_small(self, corpus_small):
        idx = FlatIndex().fit(corpus_small.emb)
        assert idx.nbytes == corpus_small.n * 8

    def test_topk_against_duckdb_oracle(self, spark, corpus_small, queries_small):
        """Spark-side exact top-k == DuckDB list_cosine_similarity top-k.

        This is the result-correctness oracle for the whole evaluation: if
        candidate verification or scoring were wrong, it would show here.
        """
        sub = corpus_small.emb[:300]
        idx = FlatIndex().fit(sub)
        k = 10
        rows = []
        for qid in range(5):
            q = queries_small.emb[qid]
            for rank, pid in enumerate(idx.search(q, k)):
                # float64 dot so both sides use the same arithmetic; on
                # unit vectors dot == cosine similarity.
                score = float(sub[pid].astype(np.float64) @ q.astype(np.float64))
                rows.append((qid, int(pid), score))
        got = spark.createDataFrame(
            pd.DataFrame(rows, columns=["qid", "pid", "score"]),
            schema="qid long, pid long, score double",
        )
        passages = pd.DataFrame(
            {"pid": np.arange(300), "emb": [list(map(float, v)) for v in sub]}
        )
        queries = pd.DataFrame(
            {"qid": np.arange(5), "qemb": [list(map(float, v)) for v in queries_small.emb[:5]]}
        )
        sql = f"""
            SELECT qid, pid, score FROM (
                SELECT qid, pid,
                       list_dot_product(emb, qemb) AS score,
                       ROW_NUMBER() OVER (
                           PARTITION BY qid
                           ORDER BY list_dot_product(emb, qemb) DESC, pid
                       ) AS rnk
                FROM queries CROSS JOIN passages
            ) WHERE rnk <= {k}
        """
        assert_equivalent(got, sql, passages=passages, queries=queries)
