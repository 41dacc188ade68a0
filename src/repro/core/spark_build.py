"""Distributed LIDER index build as a Spark dataflow.

The driver-side NumPy build (``LIDER.fit``) is the in-memory index the
latency tables measure; this module builds the *same* index with Spark —
the distributed_dataflow formulation the reproduction targets:

  1. **Stage 1 — clustering**: ``pyspark.ml.clustering.KMeans`` over the
     corpus DataFrame (arrays → ml vectors);
  2. **hashkeys** for every (passage, cluster, array) via ``mapInPandas``
     (workers regenerate the deterministic hyperplanes from seed keys —
     nothing large is shipped);
  3. **sorted arrays + locations** via a window ``row_number`` over
     (cluster_id, array_id) ordered by (key, id) — the SK-LSH linear
     order with the same id tie-break the NumPy build uses;
  4. **rescaler + RMI fits** per (cluster_id, array_id) group via
     ``applyInPandas``, returning model parameters as rows;
  5. driver-side assembly of ``CoreModel.from_parts`` per cluster.

Given identical cluster assignments, the assembled index is bit-identical
to the driver build (asserted in tests/test_spark_build.py).
"""
from __future__ import annotations

import json

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, functions as F, Window

from repro.core.core_model import CoreModel, CoreModelConfig, fold_rmi
from repro.core.lider import CENTROID_GROUP, IN_CLUSTER_GROUP, LIDER, LIDERConfig
from repro.lsh.esklsh import SortedKeyArray
from repro.lsh.projections import RandomHyperplanes
from repro.rmi.rescale import KeyRescaler
from repro.rmi.rmi import SimplifiedRMI

KEY_SCHEMA = "id long, cluster_id int, array_id int, key long"
LOC_SCHEMA = KEY_SCHEMA + ", loc long"
FIT_SCHEMA = (
    "cluster_id int, array_id int, params string, "
    "sorted_ids array<long>, sorted_keys array<long>"
)


def cluster_with_spark_kmeans(
    spark: SparkSession, df: DataFrame, c: int, *, seed: int = 1234
) -> tuple[np.ndarray, DataFrame]:
    """Stage 1 on Spark: returns (unit-norm centroids, df + cluster_id).

    KMeans in pyspark.ml is Euclidean; on unit-norm embeddings the argmin
    matches spherical k-means up to centroid normalisation, which we apply
    before handing centroids to the centroids retriever.
    """
    from pyspark.ml.clustering import KMeans
    from pyspark.ml.functions import array_to_vector

    feat = df.withColumn("features", array_to_vector(F.col("emb")))
    model = KMeans(k=c, seed=seed, featuresCol="features", predictionCol="cluster_id").fit(feat)
    assigned = model.transform(feat).select("id", "emb", F.col("cluster_id").cast("int"))
    centers = np.vstack([np.asarray(v) for v in model.clusterCenters()]).astype(np.float32)
    norms = np.maximum(np.linalg.norm(centers, axis=1, keepdims=True), 1e-12)
    return centers / norms, assigned


def spark_hashkeys(
    df: DataFrame,
    *,
    dim: int,
    h: int,
    bits_by_cluster: dict[int, int],
    base_seed: int,
) -> DataFrame:
    """(id, cluster_id, emb) → (id, cluster_id, array_id, key) for H arrays.

    Workers rebuild each cluster's hyperplanes from (base_seed, cluster_id,
    array_id) — the same seed keys the NumPy build uses — so keys match
    bit-for-bit. Keys fit in a signed long (≤50 bits).
    """
    bits_items = sorted(bits_by_cluster.items())

    def gen(batches):
        hasher_cache: dict[tuple[int, int], RandomHyperplanes] = {}
        bits = dict(bits_items)
        for pdf in batches:
            for cid, grp in pdf.groupby("cluster_id"):
                x = np.vstack(grp["emb"].map(np.asarray).to_numpy()).astype(np.float32)
                for a in range(h):
                    hk = hasher_cache.get((cid, a))
                    if hk is None:
                        # Shared in-cluster seed group (see lider.IN_CLUSTER_GROUP);
                        # hardcoding its value (0) keeps the worker closure free of
                        # driver-side imports.
                        hk = RandomHyperplanes(dim, bits[int(cid)], (base_seed, 0, a))
                        hasher_cache[(cid, a)] = hk
                    keys = hk.keys(x).astype(np.int64)
                    yield pd.DataFrame(
                        {
                            "id": grp["id"].to_numpy(),
                            "cluster_id": np.full(len(grp), cid, dtype=np.int32),
                            "array_id": np.full(len(grp), a, dtype=np.int32),
                            "key": keys,
                        }
                    )

    return df.mapInPandas(gen, schema=KEY_SCHEMA)


def spark_sorted_locations(keys_df: DataFrame) -> DataFrame:
    """Assign each hashkey its location in its (cluster, array) sorted array.

    The SK-LSH linear order is ascending key; ties break by id — matching
    the stable argsort of the NumPy build.
    """
    w = Window.partitionBy("cluster_id", "array_id").orderBy("key", "id")
    return keys_df.withColumn("loc", F.row_number().over(w) - F.lit(1))


def spark_fit_rmis(loc_df: DataFrame, *, width: int, rescale: bool) -> DataFrame:
    """Fit one (rescaler, RMI) per (cluster, array) group with applyInPandas.

    Output rows carry the fitted parameters (JSON) plus the sorted id/key
    arrays, everything the driver needs to assemble ``CoreModel.from_parts``.
    """

    def fit(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values("loc")
        keys = pdf["key"].to_numpy(dtype=np.int64).astype(np.uint64)
        n = len(pdf)
        rescaler = KeyRescaler(n, enabled=rescale)
        rmi_keys = rescaler.fit_transform(keys)
        rmi = SimplifiedRMI(width, n).fit(rmi_keys, np.arange(n, dtype=np.float64))
        params = json.dumps({"rescaler": rescaler.to_params(), "rmi": rmi.to_params()})
        return pd.DataFrame(
            {
                "cluster_id": [int(pdf["cluster_id"].iloc[0])],
                "array_id": [int(pdf["array_id"].iloc[0])],
                "params": [params],
                "sorted_ids": [pdf["id"].to_numpy(dtype=np.int64)],
                "sorted_keys": [pdf["key"].to_numpy(dtype=np.int64)],
            }
        )

    return loc_df.groupBy("cluster_id", "array_id").applyInPandas(fit, schema=FIT_SCHEMA)


def assemble_core_model(
    config: CoreModelConfig,
    emb: np.ndarray,
    member_ids: np.ndarray,
    fitted_rows: list,
) -> CoreModel:
    """Driver-side assembly of one in-cluster retriever from fitted rows.

    ``member_ids`` must be ascending; ``emb`` rows align with it.
    """
    member_ids = np.asarray(member_ids, dtype=np.int64)
    m_bits = config.hashkey_bits(member_ids.shape[0])
    arrays, folded = [], []
    for row in sorted(fitted_rows, key=lambda r: r["array_id"]):
        p = json.loads(row["params"])
        sorted_ids = np.asarray(row["sorted_ids"], dtype=np.int64)
        keys = np.asarray(row["sorted_keys"], dtype=np.int64).astype(np.uint64)
        rows = np.searchsorted(member_ids, sorted_ids)
        arrays.append(SortedKeyArray(keys, rows, m_bits=m_bits))
        folded.append(
            fold_rmi(KeyRescaler.from_params(p["rescaler"]), SimplifiedRMI.from_params(p["rmi"]))
        )
    return CoreModel.from_parts(config, emb, member_ids, arrays, folded)


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
    """
    from repro.embeddings.corpus import EmbeddingCorpus
    from repro.embeddings.datasets import corpus_to_spark

    emb = np.ascontiguousarray(emb, dtype=np.float32)
    n, dim = emb.shape
    ids = np.arange(n, dtype=np.int64) if ids is None else np.asarray(ids, np.int64)
    config = config or LIDERConfig()
    c, _ = config.resolve(n)

    corpus = EmbeddingCorpus(emb=emb, semantic=emb, topic=np.zeros(n, np.int32), ids=ids)
    df = corpus_to_spark(spark, corpus)
    if assignments is None or centroids is None:
        centroids, assigned_df = cluster_with_spark_kmeans(spark, df, c, seed=config.base_seed)
        assignments = (
            assigned_df.select("id", "cluster_id").toPandas().set_index("id")
            .loc[ids, "cluster_id"].to_numpy(dtype=np.int32)
        )
    assignments = np.asarray(assignments, dtype=np.int32)
    centroids = np.ascontiguousarray(centroids, dtype=np.float32)
    assign_pdf = pd.DataFrame({"id": ids, "cluster_id": assignments})
    df = df.join(spark.createDataFrame(assign_pdf, schema="id long, cluster_id int"), "id")

    in_cfg = CoreModelConfig(
        h=config.h, width=config.w_incluster, r0=config.r0, b=config.b,
        pad=config.pad, rescale=config.rescale, base_seed=config.base_seed,
    )
    sizes = np.bincount(assignments, minlength=centroids.shape[0])
    bits_by_cluster = {
        int(j): in_cfg.hashkey_bits(int(s)) for j, s in enumerate(sizes) if s > 0
    }

    keys_df = spark_hashkeys(
        df, dim=dim, h=config.h, bits_by_cluster=bits_by_cluster, base_seed=config.base_seed
    )
    loc_df = spark_sorted_locations(keys_df)
    fitted = spark_fit_rmis(
        loc_df, width=config.w_incluster, rescale=config.rescale
    ).collect()

    by_cluster: dict[int, list] = {}
    for row in fitted:
        by_cluster.setdefault(int(row["cluster_id"]), []).append(row.asDict())

    lider = LIDER(config)
    lider.centroids = centroids
    lider.assignments = assignments
    lider.centroid_retriever = CoreModel(
        CoreModelConfig(
            h=config.h, width=config.w_centroids, r0=config.r0, b=config.b,
            pad=config.pad, rescale=config.rescale, base_seed=config.base_seed,
            group=CENTROID_GROUP,
        )
    ).fit(centroids, np.arange(centroids.shape[0], dtype=np.int64))
    id_to_row = {int(i): r for r, i in enumerate(ids)}
    for j, rows in by_cluster.items():
        member_mask = assignments == j
        member_ids = np.sort(ids[member_mask])
        member_rows = np.array([id_to_row[int(i)] for i in member_ids], dtype=np.int64)
        cfg_j = CoreModelConfig(**{**in_cfg.__dict__, "group": IN_CLUSTER_GROUP})
        lider.in_cluster[int(j)] = assemble_core_model(
            cfg_j, emb[member_rows], member_ids, rows
        )
    lider.report.stage1_bytes = centroids.nbytes + assignments.nbytes
    lider.report.stage3_bytes = lider.memory_footprint()
    return lider
