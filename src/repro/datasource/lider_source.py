"""LIDER as a Spark DataSource (V2-style) over a saved LIDER layout.

Layout written by :func:`save_lider_index`::

    <path>/index/meta.json     # format version, c0, r0, each .npy's byte length
    <path>/index/<name>.npy    # each of ARRAYS: centroids + LIDER's layout

The corpus is ``emb.npy``, in layout order, so its rows and their ids are
stored once. Arrays load memory-mapped with ``allow_pickle=False``: a query
touches only the pages of the clusters it probes. A manifest whose version
is not ``FORMAT_VERSION`` is rejected (re-save the index).

Read path (``spark.read.format("lider")``):

* With ``query`` (JSON-encoded embedding) + ``k`` options, the reader runs
  the **exact centroid scan at planning time** (``CentroidScan``) and plans
  **one** ``InputPartition`` per query, holding the probed cluster ids (in
  the scan's order) and the resolved ``k`` — index-driven partition
  pruning, the ANN analogue of predicate pushdown. One partition costs one
  Python task wave; one partition per probed cluster paid two waves on
  ``local[4]`` while each cluster's search took a few ms. The executor
  maps the arrays, runs ``LIDER.search_clusters`` — the pass
  ``LIDER.search`` merges, which scans a probed cluster whole, one
  contiguous block of the mapped ``emb.npy``, where its windows would
  reach most of it — and yields (id, cluster_id, score, rank) rows;
  a plain ``ORDER BY score DESC LIMIT k`` in Catalyst merges the
  per-cluster top-k — LIDER's stage-3 heap merge expressed as a dataflow.
* ``pushFilters`` additionally consumes ``cluster_id`` equality/IN filters
  (classic DSv2 pushdown) to prune clusters.
* Without a query, every cluster is its own partition, so full scans stay
  parallel; they load only ``SCAN_ARRAYS`` and yield ids from ``ids.npy``
  (score NULL, rank −1).
"""
from __future__ import annotations

import json
import os
import shutil

import numpy as np

from pyspark.sql.datasource import (
    DataSource,
    DataSourceReader,
    EqualTo,
    In,
    InputPartition,
)
from pyspark.sql.types import StructType

from repro.core.lider import LIDER, CentroidScan, LIDERConfig, check_query

SCHEMA_DDL = "id long, cluster_id int, score double, rank int"
FORMAT_VERSION = 3
DEFAULT_K = 100  # top-k of a query read without a k option
# Saved as index/<name>.npy: the centroids and LIDER's layout, which is what
# LIDER.search_clusters reads. A full scan reads SCAN_ARRAYS only.
ARRAYS = ("centroids", "planes", "emb", "ids", "offsets", "sizes", "rows", "roots", "children")
SCAN_ARRAYS = ("ids", "offsets", "sizes")


def save_lider_index(lider, path: str) -> None:
    """Persist a fitted LIDER to the on-disk layout above. The ``index/``
    tree of an earlier save to ``path``, and the per-cluster
    ``embeddings/`` tree of format version 1, are removed first; nothing
    else under ``path`` is touched."""
    for tree in ("index", "embeddings"):
        if os.path.exists(os.path.join(path, tree)):
            shutil.rmtree(os.path.join(path, tree))
    idx_dir = os.path.join(path, "index")
    os.makedirs(idx_dir)
    nbytes = {}
    for name in ARRAYS:
        file = os.path.join(idx_dir, f"{name}.npy")
        np.save(file, getattr(lider, name))
        nbytes[name] = os.path.getsize(file)
    _, c0 = lider.config.resolve(lider.assignments.shape[0])
    with open(os.path.join(idx_dir, "meta.json"), "w") as f:
        json.dump({"version": FORMAT_VERSION, "c0": int(c0), "r0": lider.config.r0,
                   "bytes": nbytes}, f)


def _manifest(path: str, names: tuple[str, ...]) -> dict:
    """``meta.json``; ValueError unless its version is ``FORMAT_VERSION``
    and each named ``.npy`` has the byte length it records (``os.stat``, no
    content read; a missing file raises FileNotFoundError when loaded)."""
    idx_dir = os.path.join(path, "index")
    with open(os.path.join(idx_dir, "meta.json")) as f:
        meta = json.load(f)
    if meta.get("version") != FORMAT_VERSION:
        raise ValueError(f"{path}: index format version {meta.get('version')!r}, expected "
                         f"{FORMAT_VERSION}; re-save the index with save_lider_index")
    with os.scandir(idx_dir) as entries:
        on_disk = {e.name: e.stat().st_size for e in entries}
    bad = [n for n in names if on_disk.get(f"{n}.npy", meta["bytes"][n]) != meta["bytes"][n]]
    if bad:
        raise ValueError(f"{path}: the byte length of {', '.join(bad)} differs from the "
                         "manifest; re-save the index with save_lider_index")
    return meta


def _load(path: str, *names: str) -> list[np.ndarray]:
    """The named ``.npy`` arrays, memory-mapped read-only."""
    return [np.load(os.path.join(path, "index", f"{n}.npy"), mmap_mode="r", allow_pickle=False)
            for n in names]


class LiderReader(DataSourceReader):
    """Plans one partition per query (or per cluster on a full scan);
    searches inside executors."""

    def __init__(self, options: dict):
        self.path = options.get("path")
        if not self.path:
            raise ValueError("lider source requires a path")
        # None when absent: DEFAULT_K / meta.json's c0 then apply.
        self.k, self.c0 = (None if options.get(o) is None else int(options[o]) for o in ("k", "c0"))
        q = options.get("query")
        self.query = None if q is None else np.asarray(json.loads(q), dtype=np.float32)
        self.pushed_clusters: set[int] | None = None

    def pushFilters(self, filters):
        """Consume cluster_id equality/IN filters; pass the rest back."""
        for f in filters:
            if isinstance(f, (EqualTo, In)) and f.attribute == ("cluster_id",):
                keep = {int(v) for v in (f.value if isinstance(f, In) else (f.value,))}
                self.pushed_clusters = (
                    keep if self.pushed_clusters is None else self.pushed_clusters & keep
                )
            else:
                yield f

    def partitions(self):
        """One partition per query, or one per non-empty cluster without a
        query.

        Each value is ``(cluster ids, k)``, with ``k`` None on a full scan:
        Spark pickles the reader before planning, so ``read`` sees only
        what ``__init__`` set and what the partition carries. Raises
        ValueError for a ``k`` or ``c0`` option below 1, an index whose
        format version is not ``FORMAT_VERSION``, an array the read will
        load whose byte length differs from the manifest, or a query that
        is not a finite unit vector of the index's dimension.
        """
        for name, value in (("k", self.k), ("c0", self.c0)):
            if value is not None and value < 1:
                raise ValueError(f"option {name} must be at least 1, got {value}")
        meta = _manifest(self.path, SCAN_ARRAYS if self.query is None else ARRAYS)
        sizes, centroids = _load(self.path, "sizes", "centroids")
        if self.query is None:
            clusters = np.flatnonzero(sizes).tolist()
        else:
            check_query(self.query, centroids.shape[1])
            c0 = meta["c0"] if self.c0 is None else self.c0
            targets, _ = CentroidScan(centroids).search(self.query, km=c0)
            clusters = [int(j) for j in targets if sizes[j] > 0]
        if self.pushed_clusters is not None:
            clusters = [j for j in clusters if j in self.pushed_clusters]
        if self.query is None:
            return [InputPartition(((j,), None)) for j in clusters]
        k = DEFAULT_K if self.k is None else self.k
        return [InputPartition((tuple(clusters), k))] if clusters else []

    def read(self, partition: InputPartition | None):
        if partition is None:  # Spark's stand-in when partitions() is empty
            return
        clusters, k = partition.value
        names = SCAN_ARRAYS if k is None else ARRAYS
        meta = _manifest(self.path, names)
        lider = LIDER(LIDERConfig(r0=meta["r0"]))  # bare: only what search_clusters reads
        for name, array in zip(names, _load(self.path, *names)):
            setattr(lider, name, array)
        if k is None:
            for j in clusters:
                for pid in lider.ids[lider.part(j)].tolist():
                    yield (pid, j, None, -1)
            return
        parts = lider.search_clusters(self.query, np.asarray(clusters), k)
        for j, (ids, scores) in zip(clusters, parts):
            for rank, (pid, s) in enumerate(zip(ids.tolist(), scores.tolist())):
                yield (pid, j, s, rank)


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
    if c0 is not None:
        reader = reader.option("c0", c0)
    return reader.load().orderBy(F.desc("score")).limit(k)
