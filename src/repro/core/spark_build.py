"""LIDER index build with Spark's k-means.

The driver-side NumPy build (``LIDER.fit``) is the in-memory index the
latency tables measure; this module runs its Stage 1 on Spark:

  1. **Stage 1 — clustering**: ``pyspark.ml.clustering.KMeans`` over the
     corpus DataFrame (arrays → ml vectors), and one collect of each row's
     cluster; skipped, with no Spark job at all, when the clusters are
     injected;
  2. **in-cluster retrievers**: ``LIDER.fit`` on the driver with those
     clusters, the same call the driver build makes.

Stage 3 runs on the driver (EXPERIMENTS.md, "Deviation: Stage 3 runs on
the driver"): the build takes a driver-resident corpus, which the layout
permutes on the driver anyway, and fitting the clusters there was faster
than a per-cluster Spark task. Spark rows carry their corpus row position
as ``id``: the driver collects the KMeans assignments by position, nothing
is joined, and the external ids reach only ``LIDER.fit``. So given the
same cluster assignments the index is the driver build's, for any ids
(asserted in tests/test_spark_build.py, on injected clusters and on the
KMeans path).
"""
from __future__ import annotations

import time

import numpy as np
from pyspark.sql import DataFrame, SparkSession, functions as F

from repro.core.lider import LIDER, LIDERConfig, check_corpus


def cluster_with_spark_kmeans(
    spark: SparkSession, df: DataFrame, c: int, *, seed: int = 1234
) -> tuple[np.ndarray, DataFrame]:
    """Stage 1 on Spark: returns (unit-norm centroids, df + cluster_id).

    KMeans in pyspark.ml is Euclidean; on unit-norm embeddings the argmin
    matches spherical k-means up to centroid normalisation, which we apply
    before the centroids are scanned to probe clusters.
    """
    from pyspark.ml.clustering import KMeans
    from pyspark.ml.functions import array_to_vector

    feat = df.withColumn("features", array_to_vector(F.col("emb")))
    model = KMeans(k=c, seed=seed, featuresCol="features", predictionCol="cluster_id").fit(feat)
    assigned = model.transform(feat).select("id", "emb", F.col("cluster_id").cast("int"))
    centers = np.vstack([np.asarray(v) for v in model.clusterCenters()]).astype(np.float32)
    norms = np.maximum(np.linalg.norm(centers, axis=1, keepdims=True), 1e-12)
    return centers / norms, assigned


def build_lider_spark(
    spark: SparkSession,
    emb: np.ndarray,
    ids: np.ndarray | None = None,
    *,
    config: LIDERConfig | None = None,
    assignments: np.ndarray | None = None,
    centroids: np.ndarray | None = None,
) -> LIDER:
    """Spark k-means, then ``LIDER.fit``; returns a ready-to-search LIDER.

    With ``assignments``/``centroids`` given, Stage 1 is skipped and no
    Spark job runs (tests use this to compare against the driver build on
    identical clusters). Otherwise ``report.stage1_seconds`` is the wall
    time of the Spark DataFrame, its k-means and the assignment collect.
    ValueError, before any Spark job, for a corpus ``check_corpus`` rejects.
    """
    from repro.embeddings.corpus import EmbeddingCorpus
    from repro.embeddings.datasets import corpus_to_spark

    config = config or LIDERConfig()
    if assignments is not None or centroids is not None:
        return LIDER(config).fit(emb, ids, assignments=assignments, centroids=centroids)

    emb, ids = check_corpus(emb, ids)
    n = emb.shape[0]
    c, _ = config.resolve(n)
    t0 = time.perf_counter()
    # No ids given: the Spark rows' id is their row position.
    corpus = EmbeddingCorpus(emb=emb, semantic=emb, topic=np.zeros(n, np.int32))
    centroids, df = cluster_with_spark_kmeans(
        spark, corpus_to_spark(spark, corpus), c, seed=config.base_seed
    )
    assigned = df.select("id", "cluster_id").toPandas()
    assignments = np.empty(n, dtype=np.int32)
    assignments[assigned["id"].to_numpy()] = assigned["cluster_id"].to_numpy()
    stage1_seconds = time.perf_counter() - t0

    lider = LIDER(config).fit(emb, ids, assignments=assignments, centroids=centroids)
    lider.report.stage1_seconds = stage1_seconds
    return lider
