"""Distributed LIDER index build as a Spark dataflow.

The driver-side NumPy build (``LIDER.fit``) is the in-memory index the
latency tables measure; this module builds the *same* index with Spark —
the distributed_dataflow formulation the reproduction targets:

  1. **Stage 1 — clustering**: ``pyspark.ml.clustering.KMeans`` over the
     corpus DataFrame (arrays → ml vectors), or injected assignments;
  2. **in-cluster retrievers**: one ``groupBy("cluster_id").applyInPandas``
     in which each cluster, its rows in corpus order, runs the driver's own
     ``CoreModel.fit`` and returns one row: its sorted rows and folded RMI
     parameters, each raveled (the sorted keys stay behind: the index keeps
     none);
  3. **driver assembly**: ``LIDER.assemble``, the function ``LIDER.fit``
     fills its layout with, permutes the corpus into cluster order and
     copies each cluster's row, reshaped, into the layout.

Spark rows carry their corpus row position as ``id``: the driver collects
the KMeans assignments by position, nothing is joined, and the external ids
reach only ``LIDER.assemble``. Hashing, the row tie-break and the RMI
folding are those of ``CoreModel.fit``, so given identical cluster
assignments the assembled index is bit-identical to the driver build for
any ids (asserted in tests/test_spark_build.py, on injected clusters and on
the KMeans path).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, functions as F

from repro.core.core_model import CoreModel, CoreModelConfig
from repro.core.lider import IN_CLUSTER_GROUP, LIDER, LIDERConfig, check_corpus

FIT_SCHEMA = "cluster_id int, rows array<int>, params array<double>"


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


def spark_fit_clusters(df: DataFrame, config: CoreModelConfig) -> DataFrame:
    """(id, cluster_id, emb), ``id`` the corpus row position → one row per
    cluster of its fitted in-cluster retriever: the (H, n_j) sorted rows
    (positions among the cluster's members in ``id`` order) and the
    (3, H, 1 + W) ``fold_rmi`` parameters, each raveled."""

    def fit(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values("id")
        cm = CoreModel(config).fit(np.vstack(pdf["emb"].to_numpy()).astype(np.float32))
        params = np.concatenate([cm.roots[:, :, None], cm.children], axis=2)
        return pd.DataFrame({
            "cluster_id": [int(pdf["cluster_id"].iloc[0])],
            "rows": [cm.esklsh.rows.ravel()],
            "params": [params.ravel()],
        })

    return df.groupBy("cluster_id").applyInPandas(fit, schema=FIT_SCHEMA)


def build_lider_spark(
    spark: SparkSession,
    emb: np.ndarray,
    ids: np.ndarray | None = None,
    *,
    config: LIDERConfig | None = None,
    assignments: np.ndarray | None = None,
    centroids: np.ndarray | None = None,
) -> LIDER:
    """End-to-end distributed build; returns a ready-to-search LIDER.

    With ``assignments``/``centroids`` given, Stage 1 is skipped (tests use
    this to compare against the driver build on identical clusters).
    ValueError, before any Spark job, for a corpus ``check_corpus`` rejects.
    """
    from repro.embeddings.corpus import EmbeddingCorpus
    from repro.embeddings.datasets import corpus_to_spark

    emb, ids = check_corpus(emb, ids)
    n = emb.shape[0]
    config = config or LIDERConfig()
    c, _ = config.resolve(n)

    # No ids given: the Spark rows' id is their row position.
    corpus = EmbeddingCorpus(emb=emb, semantic=emb, topic=np.zeros(n, np.int32))
    if assignments is None or centroids is None:
        centroids, df = cluster_with_spark_kmeans(
            spark, corpus_to_spark(spark, corpus), c, seed=config.base_seed
        )
        assigned = df.select("id", "cluster_id").toPandas()
        assignments = np.empty(n, dtype=np.int32)
        assignments[assigned["id"].to_numpy()] = assigned["cluster_id"].to_numpy()
    else:
        df = corpus_to_spark(spark, corpus, assignments)
    in_cfg = config.core_config(IN_CLUSTER_GROUP)
    fitted = {int(r.cluster_id): r for r in spark_fit_clusters(df, in_cfg).toPandas().itertuples()}

    def from_spark(j, emb_j, planes):
        row = fitted[j]
        params = np.reshape(row.params, (3, in_cfg.h, -1))
        return np.reshape(row.rows, (in_cfg.h, -1)), params[:, :, 0], params[:, :, 1:]

    lider = LIDER(config)
    lider.assemble(emb, ids, centroids, assignments, from_spark)
    return lider
