"""Tests for spherical k-means (LIDER Stage 1), incl. a DuckDB oracle check
of the assignment step."""
import numpy as np
import pandas as pd
import pytest

from repro.core.kmeans import assign_clusters, spherical_kmeans
from repro.embeddings.corpus import make_corpus
from repro.oracle import assert_equivalent


def per_mask_kmeans(x, c, *, n_iter=20, sample_cap=50_000, seed=11):
    """The reference Lloyd update: each centroid the mean of a boolean
    mask's members. Returns (centroids, assignments, empty-cluster
    re-seeds)."""
    x = np.asarray(x, dtype=np.float32)
    n = x.shape[0]
    g = np.random.default_rng(seed)
    train = x if n <= sample_cap else x[g.choice(n, sample_cap, replace=False)]
    centroids = train[g.choice(train.shape[0], c, replace=False)].copy()
    reseeds = 0
    for _ in range(n_iter):
        labels = assign_clusters(train, centroids)
        for j in range(c):
            members = train[labels == j]
            if members.shape[0] == 0:
                centroids[j] = train[g.integers(0, train.shape[0])]
                reseeds += 1
            else:
                centroids[j] = members.mean(axis=0)
        norms = np.linalg.norm(centroids, axis=1, keepdims=True)
        centroids = (centroids / np.maximum(norms, 1e-12)).astype(np.float32)
    return centroids, assign_clusters(x, centroids), reseeds


class TestAssignClusters:
    def test_max_inner_product(self):
        x = np.eye(3, dtype=np.float32)
        cents = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=np.float32)
        assert assign_clusters(x, cents).tolist() == [0, 1, 2]

    def test_chunking_matches_single_shot(self, corpus_small):
        cents, _ = spherical_kmeans(corpus_small.emb, 6, seed=0)
        a = assign_clusters(corpus_small.emb, cents, chunk=77)
        b = assign_clusters(corpus_small.emb, cents, chunk=10**9)
        assert np.array_equal(a, b)

    def test_assignment_matches_duckdb_oracle(self, spark, corpus_small):
        """Spark-side assignment == DuckDB SQL argmax over a cross join."""
        cents, _ = spherical_kmeans(corpus_small.emb, 4, seed=0)
        sub = corpus_small.emb[:200]
        assign = assign_clusters(sub, cents)
        points = pd.DataFrame(
            {"pid": np.arange(200), "emb": [list(map(float, v)) for v in sub]}
        )
        centroids = pd.DataFrame(
            {"cid": np.arange(4), "cent": [list(map(float, v)) for v in cents]}
        )
        got = spark.createDataFrame(
            pd.DataFrame({"pid": np.arange(200), "cid": assign.astype(np.int64)}),
            schema="pid long, cid long",
        )
        sql = """
            SELECT pid, CAST(arg_max(cid, list_dot_product(emb, cent)) AS BIGINT) AS cid
            FROM points CROSS JOIN centroids
            GROUP BY pid
        """
        assert_equivalent(got, sql, points=points, centroids=centroids)


class TestSphericalKMeans:
    def test_centroid_count_and_norm(self, corpus_small):
        cents, assign = spherical_kmeans(corpus_small.emb, 7, seed=1)
        assert cents.shape == (7, 32)
        assert np.linalg.norm(cents, axis=1) == pytest.approx(1.0, abs=1e-5)
        assert assign.shape == (2000,)

    def test_deterministic(self, corpus_small):
        a = spherical_kmeans(corpus_small.emb, 5, seed=2)
        b = spherical_kmeans(corpus_small.emb, 5, seed=2)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    @pytest.mark.parametrize("seed", [2, 9])
    def test_equals_per_mask_update(self, corpus_small, seed):
        """The sort-once update averages the same rows, in the same order,
        as a boolean mask per cluster: bit-identical centroids."""
        got = spherical_kmeans(corpus_small.emb, 12, sample_cap=1500, seed=seed)
        want = per_mask_kmeans(corpus_small.emb, 12, sample_cap=1500, seed=seed)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_equals_per_mask_update_with_reseeds(self):
        """Four distinct points, eight clusters: duplicate initial centroids
        leave clusters empty, and their re-seeds draw from the generator in
        the same order as the per-mask update's."""
        base = make_corpus(4, dim=8, seed=1).emb
        x = base[np.random.default_rng(0).integers(0, 4, 200)]
        got = spherical_kmeans(x, 8, n_iter=6, seed=3)
        want_c, want_a, reseeds = per_mask_kmeans(x, 8, n_iter=6, seed=3)
        assert reseeds > 0
        assert np.array_equal(got[0], want_c) and np.array_equal(got[1], want_a)

    def test_recovers_separated_topics(self):
        c = make_corpus(3000, dim=32, n_topics=5, topic_spread=0.2, seed=4)
        _, assign = spherical_kmeans(c.emb, 5, seed=0)
        # Cluster labels must be a near-permutation of topic labels.
        agreements = 0
        for j in range(5):
            members = c.topic[assign == j]
            if members.size:
                agreements += (members == np.bincount(members).argmax()).sum()
        assert agreements / c.n > 0.95

    def test_assignment_is_argmax(self, corpus_small):
        cents, assign = spherical_kmeans(corpus_small.emb, 6, seed=3)
        assert np.array_equal(assign, assign_clusters(corpus_small.emb, cents))

    def test_all_clusters_nonempty_on_spread_data(self, corpus_small):
        _, assign = spherical_kmeans(corpus_small.emb, 8, seed=5)
        assert len(np.unique(assign)) == 8

    def test_c_equals_n(self):
        c = make_corpus(10, dim=8, seed=0)
        cents, assign = spherical_kmeans(c.emb, 10, seed=0, n_iter=5)
        assert cents.shape[0] == 10

    @pytest.mark.parametrize("c", [0, 3000])
    def test_invalid_c_raises(self, corpus_small, c):
        with pytest.raises(ValueError):
            spherical_kmeans(corpus_small.emb, c)

    def test_sampled_training_still_assigns_all(self):
        c = make_corpus(4000, dim=16, seed=6)
        _, assign = spherical_kmeans(c.emb, 4, sample_cap=500, seed=0)
        assert assign.shape == (4000,)
