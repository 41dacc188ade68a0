"""Tests for the distributed (Spark dataflow) LIDER build: the Spark-built
index is checked against the driver-side NumPy build and a DuckDB oracle."""
import numpy as np
import pandas as pd
import pytest

from repro.core.lider import LIDER, LIDERConfig
from repro.core.spark_build import build_lider_spark, cluster_with_spark_kmeans
from repro.embeddings.datasets import corpus_to_spark
from repro.oracle import assert_equivalent
from tests.test_lider import assert_layout_views

CFG = LIDERConfig(c=8, c0=4)
PARAMS = ("roots", "children")
LAYOUT = ("emb", "ids", "offsets", "sizes", "shifts", "rows", "roots", "children", "planes")
ID_KINDS = ("arange", "reversed", "permuted")


def make_ids(kind: str, n: int) -> np.ndarray:
    """External ids that ascend with, run against, or ignore row position."""
    if kind == "arange":
        return np.arange(n, dtype=np.int64)
    if kind == "reversed":
        return np.arange(n, dtype=np.int64)[::-1].copy()
    return np.random.default_rng(0).permutation(n).astype(np.int64) * 3 + 11


def assert_same_index(driver: LIDER, dist: LIDER) -> None:
    """Every layout array, and every cluster's ids, sorted keys, rows and
    folded parameters, equal; each index's retrievers view its layout."""
    assert driver.in_cluster.keys() == dist.in_cluster.keys()
    for name in LAYOUT:
        assert np.array_equal(getattr(driver, name), getattr(dist, name))
    assert_layout_views(driver)
    assert_layout_views(dist)
    for j, cm in driver.in_cluster.items():
        other = dist.in_cluster[j]
        assert np.shares_memory(cm.esklsh.planes, driver.planes)
        assert np.shares_memory(other.esklsh.planes, dist.planes)
        assert np.array_equal(cm.ids, other.ids)
        for arr_a, arr_b in zip(cm.esklsh.arrays, other.esklsh.arrays, strict=True):
            assert np.array_equal(arr_a.keys, arr_b.keys)
            assert np.array_equal(arr_a.rows, arr_b.rows)
        for name in PARAMS:
            assert np.array_equal(getattr(cm, name), getattr(other, name))


@pytest.fixture(scope="module")
def spark_df(spark, corpus_small, clustered_small):
    _, assign = clustered_small
    return corpus_to_spark(spark, corpus_small, assign)


@pytest.fixture(scope="module")
def spark_built(spark, corpus_small, clustered_small):
    """kind → (ids, Spark build on the injected clusters), each built once."""
    cents, assign = clustered_small
    cache = {}

    def get(kind: str):
        if kind not in cache:
            ids = make_ids(kind, corpus_small.n)
            cache[kind] = ids, build_lider_spark(
                spark, corpus_small.emb, ids, config=CFG, assignments=assign, centroids=cents
            )
        return cache[kind]

    return get


class TestEndToEnd:
    @pytest.mark.parametrize("kind", ID_KINDS)
    def test_spark_build_equals_driver_build(
        self, kind, spark_built, corpus_small, clustered_small, queries_small
    ):
        cents, assign = clustered_small
        ids, dist = spark_built(kind)
        driver = LIDER(CFG).fit(corpus_small.emb, ids, assignments=assign, centroids=cents)
        assert_same_index(driver, dist)
        for q in queries_small.emb:
            ids_a, sc_a = driver.search(q, 30)
            ids_b, sc_b = dist.search(q, 30)
            assert np.array_equal(ids_a, ids_b)
            assert sc_a == pytest.approx(sc_b)

    def test_array_locations_match_duckdb_window_oracle(self, spark, spark_built):
        """Each stored location == DuckDB's ROW_NUMBER over (key, corpus row):
        arrays sorted by key, ties broken by row position, not by id."""
        ids, dist = spark_built("permuted")
        pos_of = pd.Series(np.arange(ids.size), index=ids)
        frames = []
        for j, cm in dist.in_cluster.items():
            pos = pos_of.loc[cm.ids].to_numpy()
            for a, arr in enumerate(cm.esklsh.arrays):
                frames.append(pd.DataFrame({
                    "cluster_id": j,
                    "array_id": a,
                    "pos": pos[arr.rows],
                    "key": arr.keys.astype(np.int64),
                    "loc": np.arange(len(arr)),
                }))
        stored = pd.concat(frames, ignore_index=True)
        got = spark.createDataFrame(stored.drop(columns="key"))
        sql = """
            SELECT cluster_id, array_id, pos,
                   ROW_NUMBER() OVER (
                       PARTITION BY cluster_id, array_id ORDER BY key, pos
                   ) - 1 AS loc
            FROM hashkeys
        """
        hashkeys = stored.drop(columns="loc").sample(frac=1.0, random_state=0)
        assert_equivalent(got, sql, hashkeys=hashkeys)

    @pytest.mark.parametrize("build", ["driver", "spark"])
    def test_cluster_probe_matches_duckdb_oracle(
        self, spark, build, lider_small, spark_built, queries_small
    ):
        """centroid_retriever.search(q, c0) == DuckDB's top-c0 centroids by
        dot product, in order, for every query."""
        lider = lider_small if build == "driver" else spark_built("permuted")[1]
        _, c0 = lider.config.resolve(lider.assignments.shape[0])
        got = spark.createDataFrame(pd.DataFrame(
            [
                (qid, rank, int(j))
                for qid, q in enumerate(queries_small.emb)
                for rank, j in enumerate(lider.centroid_retriever.search(q, c0)[0])
            ],
            columns=["qid", "rank", "cluster_id"],
        ))
        centroids = pd.DataFrame({
            "cluster_id": np.arange(lider.centroids.shape[0]),
            "cemb": [list(map(float, v)) for v in lider.centroids],
        })
        queries = pd.DataFrame({
            "qid": np.arange(len(queries_small.emb)),
            "qemb": [list(map(float, v)) for v in queries_small.emb],
        })
        sql = f"""
            SELECT qid, rank, cluster_id FROM (
                SELECT qid, cluster_id,
                       ROW_NUMBER() OVER (
                           PARTITION BY qid ORDER BY list_dot_product(cemb, qemb) DESC
                       ) - 1 AS rank
                FROM queries CROSS JOIN centroids
            ) WHERE rank < {c0}
        """
        assert_equivalent(got, sql, centroids=centroids, queries=queries)

    def test_duplicate_ids_raise(self, spark, corpus_small):
        ids = np.arange(corpus_small.n, dtype=np.int64)
        ids[9] = ids[4]
        with pytest.raises(ValueError, match="not unique"):
            build_lider_spark(spark, corpus_small.emb, ids, config=CFG)

    def test_non_unit_row_raises(self, spark, corpus_small):
        emb = corpus_small.emb.copy()
        emb[7] *= 1.01
        with pytest.raises(ValueError, match="unit-norm"):
            build_lider_spark(spark, emb, config=CFG)

    def test_spark_kmeans_build_equals_driver_build(self, spark, corpus_small, monkeypatch):
        """On the KMeans path with permuted external ids, assignment i is
        the cluster of Spark row i (id = row position), and the index equals
        the driver build on those clusters."""
        from repro.core import spark_build

        seen = []

        def spy(*args, **kwargs):
            centroids, assigned = cluster_with_spark_kmeans(*args, **kwargs)
            seen.append(assigned)
            return centroids, assigned

        monkeypatch.setattr(spark_build, "cluster_with_spark_kmeans", spy)
        ids = make_ids("permuted", corpus_small.n)
        dist = build_lider_spark(spark, corpus_small.emb, ids, config=CFG)
        (assigned,) = seen
        rows = assigned.toPandas()
        assert np.array_equal(np.sort(rows["id"].to_numpy()), np.arange(corpus_small.n))
        pos = rows["id"].to_numpy()
        assert np.array_equal(np.vstack(rows["emb"].to_numpy()), corpus_small.emb[pos])
        assert np.array_equal(dist.assignments[pos], rows["cluster_id"].to_numpy())
        driver = LIDER(CFG).fit(
            corpus_small.emb, ids, assignments=dist.assignments, centroids=dist.centroids
        )
        assert_same_index(driver, dist)

    def test_spark_kmeans_build_searches_sensibly(self, spark, corpus_small, queries_small):
        idx = build_lider_spark(spark, corpus_small.emb, config=CFG)
        hits = sum(
            int(t) in idx.search(q, 100)[0]
            for q, t in zip(queries_small.emb[:20], queries_small.target[:20])
        )
        assert hits >= 10

    def test_spark_kmeans_centroids_unit_norm(self, spark, spark_df):
        cents, assigned = cluster_with_spark_kmeans(spark, spark_df.select("id", "emb"), 6)
        assert np.linalg.norm(cents, axis=1) == pytest.approx(1.0, abs=1e-5)
        assert assigned.select("cluster_id").distinct().count() <= 6
