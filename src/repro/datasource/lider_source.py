"""LIDER as a Spark DataSource (V2-style) over embedding Parquet files.

Layout written by :func:`save_lider_index`::

    <path>/embeddings/cluster_id=<j>/*.parquet   # (id, emb) per cluster
    <path>/index/meta.json                       # config, k defaults
    <path>/index/centroid_retriever.pkl          # Layer-1 core model
    <path>/index/cluster_<j>.pkl                 # Layer-2 core models
                                                 # (embedding-free: data
                                                 #  stays in Parquet only)

Read path (``spark.read.format("lider")``):

* With ``query`` (JSON-encoded embedding) + ``k`` options, the reader runs
  the **centroids retriever at planning time** and emits one
  ``InputPartition`` per target cluster — index-driven partition pruning,
  the ANN analogue of predicate pushdown. Executors load their cluster's
  Parquet file + pickled in-cluster retriever, run the core-model search,
  and return (id, cluster_id, score, rank) rows; a plain
  ``ORDER BY score DESC LIMIT k`` in Catalyst merges the per-cluster
  top-k — LIDER's stage-3 heap merge expressed as a dataflow.
* ``pushFilters`` additionally consumes ``cluster_id`` equality/IN filters
  (classic DSv2 pushdown) to prune partitions on full scans.
* Without a query, all clusters are scanned (score is NULL, rank −1).
"""
from __future__ import annotations

import copy
import json
import os
import pickle

import numpy as np

from pyspark.sql.datasource import (
    DataSource,
    DataSourceReader,
    EqualTo,
    In,
    InputPartition,
)
from pyspark.sql.types import StructType

SCHEMA_DDL = "id long, cluster_id int, score double, rank int"


def save_lider_index(lider, path: str) -> None:
    """Persist a fitted LIDER plus its corpus to the on-disk layout above.

    Embeddings are written once (Parquet, partitioned by cluster); the
    pickled in-cluster retrievers are stripped of their embedding matrices
    so the Parquet files remain the single copy of the data.
    """
    import pyarrow as pa
    import pyarrow.parquet as pq

    emb_dir = os.path.join(path, "embeddings")
    idx_dir = os.path.join(path, "index")
    os.makedirs(emb_dir, exist_ok=True)
    os.makedirs(idx_dir, exist_ok=True)
    for j, cm in lider.in_cluster.items():
        part_dir = os.path.join(emb_dir, f"cluster_id={j}")
        os.makedirs(part_dir, exist_ok=True)
        n, d = cm.emb.shape
        offsets = pa.array(np.arange(0, n * d + 1, d, dtype=np.int32))
        table = pa.table(
            {
                "id": pa.array(cm.ids, type=pa.int64()),
                "emb": pa.ListArray.from_arrays(offsets, pa.array(cm.emb.ravel())),
            }
        )
        pq.write_table(table, os.path.join(part_dir, "part-0.parquet"))
        stripped = copy.copy(cm)  # shares the index arrays; only emb differs
        stripped.emb = None
        with open(os.path.join(idx_dir, f"cluster_{j}.pkl"), "wb") as f:
            pickle.dump(stripped, f)
    with open(os.path.join(idx_dir, "centroid_retriever.pkl"), "wb") as f:
        pickle.dump(lider.centroid_retriever, f)
    _, c0 = lider.config.resolve(lider.assignments.shape[0])
    with open(os.path.join(idx_dir, "meta.json"), "w") as f:
        json.dump(
            {
                "clusters": sorted(int(j) for j in lider.in_cluster),
                "c0": int(c0),
                "default_k": 100,
            },
            f,
        )


def _load_cluster_embeddings(path: str, j: int, ids: np.ndarray) -> np.ndarray:
    """Read one cluster's Parquet and align rows to the retriever's ids."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    table = pq.read_table(os.path.join(path, "embeddings", f"cluster_id={j}"))
    file_ids = table.column("id").to_numpy()
    values = pc.list_flatten(table.column("emb")).to_numpy()
    emb = values.astype(np.float32, copy=False).reshape(file_ids.shape[0], -1)
    order = np.argsort(file_ids, kind="stable")
    pos = np.minimum(np.searchsorted(file_ids, ids, sorter=order), order.size - 1)
    rows = order[pos]
    if not np.array_equal(file_ids[rows], ids):
        missing = ids[file_ids[rows] != ids]
        raise ValueError(f"cluster {j}: ids {missing[:5].tolist()} missing from {path}")
    return emb[rows]


class LiderReader(DataSourceReader):
    """Plans one partition per (target) cluster; searches inside executors."""

    def __init__(self, options: dict):
        self.path = options.get("path")
        if not self.path:
            raise ValueError("lider source requires a path")
        self.k = int(options.get("k", 0) or 0)
        self.c0 = int(options.get("c0", 0) or 0)
        q = options.get("query")
        self.query = None if q is None else np.asarray(json.loads(q), dtype=np.float32)
        self.pushed_clusters: set[int] | None = None

    def pushFilters(self, filters):
        """Consume cluster_id equality/IN filters; pass the rest back."""
        for f in filters:
            if isinstance(f, EqualTo) and f.attribute == ("cluster_id",):
                keep = {int(f.value)}
                self.pushed_clusters = (
                    keep if self.pushed_clusters is None else self.pushed_clusters & keep
                )
            elif isinstance(f, In) and f.attribute == ("cluster_id",):
                keep = {int(v) for v in f.value}
                self.pushed_clusters = (
                    keep if self.pushed_clusters is None else self.pushed_clusters & keep
                )
            else:
                yield f

    def _meta(self) -> dict:
        with open(os.path.join(self.path, "index", "meta.json")) as f:
            return json.load(f)

    def partitions(self):
        meta = self._meta()
        clusters = meta["clusters"]
        if self.query is not None:
            with open(os.path.join(self.path, "index", "centroid_retriever.pkl"), "rb") as f:
                cr = pickle.load(f)
            c0 = self.c0 or meta["c0"]
            targets, _ = cr.search(self.query, km=c0)
            clusters = [int(j) for j in targets if int(j) in set(clusters)]
        if self.pushed_clusters is not None:
            clusters = [j for j in clusters if j in self.pushed_clusters]
        return [InputPartition(int(j)) for j in clusters]

    def read(self, partition: InputPartition):
        j = int(partition.value)
        with open(os.path.join(self.path, "index", f"cluster_{j}.pkl"), "rb") as f:
            cm = pickle.load(f)
        cm.emb = _load_cluster_embeddings(self.path, j, cm.ids)
        if self.query is None:
            for pid in cm.ids:
                yield (int(pid), j, None, -1)
            return
        k = self.k or self._meta()["default_k"]
        ids, scores = cm.search(self.query, km=k)
        for rank, (pid, s) in enumerate(zip(ids, scores)):
            yield (int(pid), j, float(s), rank)


class LiderDataSource(DataSource):
    """spark.read.format("lider").options(path=..., query=..., k=...)"""

    @classmethod
    def name(cls) -> str:
        return "lider"

    def schema(self) -> str:
        return SCHEMA_DDL

    def reader(self, schema: StructType) -> LiderReader:
        opts = dict(self.options)
        return LiderReader(opts)


def register_lider_source(spark) -> None:
    """Register the "lider" format on a SparkSession (idempotent).

    Also enables Python-source filter pushdown: a reader that implements
    ``pushFilters`` refuses to plan while the flag is off.
    """
    spark.conf.set("spark.sql.python.filterPushdown.enabled", "true")
    spark.dataSource.register(LiderDataSource)


def ann_search_df(spark, path: str, query: np.ndarray, k: int = 100, c0: int | None = None):
    """Convenience: top-k DataFrame for one query via the lider source.

    The per-cluster top-k happens inside partitions; the global merge is a
    Catalyst sort-limit.
    """
    from pyspark.sql import functions as F

    reader = (
        spark.read.format("lider")
        .option("path", path)
        .option("query", json.dumps([float(x) for x in np.asarray(query)]))
        .option("k", k)
    )
    if c0:
        reader = reader.option("c0", c0)
    return reader.load().orderBy(F.desc("score")).limit(k)
