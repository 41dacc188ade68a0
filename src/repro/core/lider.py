"""LIDER — the clustering-based two-layer learned index (paper §3.2, §3.3.2).

Build (staged as Table 5 reports; the paper's Stage 2, a learned
*centroids retriever*, is not built — see :class:`CentroidScan`):
  * Stage 1 — spherical k-means clusters the corpus into ``c`` groups;
  * Stage 3 — one core model per cluster (the *in-cluster retrievers*),
    built in a thread pool (clusters are independent).

Search: exact centroid scan → top-``c0`` clusters → in-cluster retrievers
each return top-k with exact cosine scores → merge → global top-k. One
query runs its clusters sequentially: a per-query thread pool (§3.3.2's
parallel retrieval) measured slower at this scale. The IR build stays
threaded, and the Spark DataSource runs clusters as parallel partitions.
"""
from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.core.core_model import CoreModel, CoreModelConfig, top_k
from repro.core.kmeans import spherical_kmeans

CENTROID_GROUP = -1  # seed group of the paper's learned CR (Table-5 ablation only)
# All in-cluster retrievers share one projection-seed group: clusters index
# disjoint data, so one (H, M, d) hyperplane tensor, drawn once per index at
# the largest cluster's hashkey length M (``LIDER.planes``), serves every
# cluster through a ``[:, :M_j]`` view — counted once in the memory footprint.
IN_CLUSTER_GROUP = 0


def check_query(q: np.ndarray, dim: int) -> np.ndarray:
    """``q`` as a float32 vector; ValueError unless it has ``dim`` finite
    values."""
    q = np.asarray(q, dtype=np.float32)
    if q.shape != (dim,):
        raise ValueError(f"query has shape {q.shape}, expected ({dim},)")
    if not np.isfinite(q).all():
        raise ValueError("query has non-finite values")
    return q


def check_corpus(emb: np.ndarray, ids: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``emb`` as contiguous float32 rows and ``ids`` as int64 (row positions
    when None); ValueError for non-finite rows, ids that do not align with
    the rows, or duplicate ids."""
    emb = np.ascontiguousarray(emb, dtype=np.float32)
    n = emb.shape[0]
    ids = np.arange(n, dtype=np.int64) if ids is None else np.asarray(ids, np.int64)
    if ids.shape != (n,):
        raise ValueError(f"ids have shape {ids.shape}, expected ({n},) to align with the rows")
    bad = np.flatnonzero(~np.isfinite(emb).all(axis=1))
    if bad.size:
        raise ValueError(f"corpus rows {bad[:5].tolist()} have non-finite values")
    if np.unique(ids).size != n:
        raise ValueError("corpus ids are not unique")
    return emb, ids


@dataclass
class CentroidScan:
    """Top clusters by an exact ``centroids @ q`` scan, in place of the paper's
    learned centroids retriever (EXPERIMENTS.md, "Deviation: exact centroid scan")."""

    emb: np.ndarray  # (c, d) unit-norm centroids

    def search(self, q: np.ndarray, km: int) -> tuple[np.ndarray, np.ndarray]:
        """Top-km (cluster ids, cosine scores), scores descending."""
        scores = self.emb @ q
        top = top_k(scores, km)
        return top, scores[top]

    def candidate_rows(self, q: np.ndarray, km: int) -> np.ndarray:
        """Every centroid: the scan scores them all."""
        return np.arange(self.emb.shape[0])


@dataclass
class LIDERConfig:
    """End-to-end LIDER hyperparameters (paper §7.2.1 defaults, scaled).

    Paper: c=1000, c0=20, H=10, Wc=10, Wi=5 on 8.8M passages
    (≈8.8k vectors/cluster; recommendation 10k–50k). At our ~1/44 scale we
    default to ~500-vector clusters and keep the paper's c0/c ≈ 1/50.
    """

    c: int | None = None  # clusters; None → n // target_cluster_size
    c0: int | None = None  # retrieved centroids; None → max(2, c // 50)
    target_cluster_size: int = 500
    h: int = 10
    w_centroids: int = 10
    w_incluster: int = 5
    r0: int = 4
    b: int = 3
    pad: int = 4
    rescale: bool = True
    base_seed: int = 1234
    kmeans_iters: int = 20
    build_workers: int = 8

    def resolve(self, n: int) -> tuple[int, int]:
        c = self.c if self.c is not None else max(4, min(n, n // self.target_cluster_size))
        c = max(1, min(c, n))
        # The paper uses c0/c = 1/50 at c=1000; at our compressed cluster
        # counts a floor of 8 keeps the probed fraction high enough for the
        # paper's quality regime (cf. Fig. 7's c0 saturation).
        c0 = self.c0 if self.c0 is not None else max(8, c // 50)
        return c, min(c0, c)

    def core_config(self, group: int) -> CoreModelConfig:
        """Core-model config of an in-cluster retriever (width
        ``w_incluster``), or with ``CENTROID_GROUP`` of the paper's learned
        centroids retriever (width ``w_centroids``; Table-5 ablation only)."""
        return CoreModelConfig(
            h=self.h,
            width=self.w_centroids if group == CENTROID_GROUP else self.w_incluster,
            r0=self.r0, b=self.b, pad=self.pad, rescale=self.rescale,
            base_seed=self.base_seed, group=group,
        )


@dataclass
class BuildReport:
    """Per-stage wall-clock and post-stage index memory (Table 5 rows)."""

    stage1_seconds: float = 0.0
    stage3_seconds: float = 0.0
    stage1_bytes: int = 0
    stage3_bytes: int = 0


class LIDER:
    """The two-layer index over one embedding corpus."""

    def __init__(self, config: LIDERConfig | None = None):
        self.config = config or LIDERConfig()
        self.centroids: np.ndarray | None = None  # (c, d)
        self.assignments: np.ndarray | None = None  # (n,)
        self.in_cluster: dict[int, CoreModel] = {}
        self.planes: np.ndarray | None = None  # (H, M, d) shared by the IRs
        self.report = BuildReport()

    @property
    def centroid_retriever(self) -> CentroidScan:
        """Picks the clusters a query probes."""
        return CentroidScan(self.centroids)

    # ------------------------------------------------------------------ build
    def fit(
        self,
        emb: np.ndarray,
        ids: np.ndarray | None = None,
        *,
        assignments: np.ndarray | None = None,
        centroids: np.ndarray | None = None,
    ) -> "LIDER":
        """Build Stages 1 and 3 over a corpus ``check_corpus`` accepts.

        ``assignments``/``centroids`` may be injected (the Spark build path
        clusters with pyspark.ml) — Stage 1 is then skipped but still timed.
        """
        emb, ids = check_corpus(emb, ids)
        n = emb.shape[0]
        cfg = self.config
        c, _ = cfg.resolve(n)

        t0 = time.perf_counter()
        if assignments is None or centroids is None:
            self.centroids, self.assignments = spherical_kmeans(
                emb, c, n_iter=cfg.kmeans_iters, seed=cfg.base_seed
            )
        else:
            self.centroids = np.ascontiguousarray(centroids, dtype=np.float32)
            self.assignments = np.asarray(assignments, dtype=np.int32)
        self.report.stage1_seconds = time.perf_counter() - t0
        self.report.stage1_bytes = self.centroids.nbytes + self.assignments.nbytes

        t0 = time.perf_counter()
        c_actual = self.centroids.shape[0]
        members = {
            j: np.flatnonzero(self.assignments == j) for j in range(c_actual)
        }
        in_cfg = cfg.core_config(IN_CLUSTER_GROUP)
        largest = max(rows.size for rows in members.values())
        self.planes = in_cfg.hyperplanes(emb.shape[1], largest)

        def _build(j: int) -> tuple[int, CoreModel | None]:
            rows = members[j]
            if rows.size == 0:
                return j, None
            return j, CoreModel(in_cfg).fit(emb[rows], ids[rows], planes=self.planes)

        self.in_cluster = {}
        with ThreadPoolExecutor(max_workers=self.config.build_workers) as pool:
            for j, cm in pool.map(_build, range(c_actual)):
                if cm is not None:
                    self.in_cluster[j] = cm
        self.report.stage3_seconds = time.perf_counter() - t0
        self.report.stage3_bytes = self.memory_footprint()
        return self

    # ----------------------------------------------------------------- search
    def search(self, q: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Top-k (external ids, cosine scores) for one query embedding.

        Returns ``min(k, candidates)`` ids: the candidates are the rows the
        probed clusters' windows reach, every row once r0·k covers a
        cluster (e.g. k ≥ n). Raises ValueError for ``k < 1`` or a query
        that is not a finite vector of the corpus dimension.
        """
        if self.centroids is None:
            raise RuntimeError("search before fit")
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        q = check_query(q, self.centroids.shape[1])
        _, c0 = self.config.resolve(self.assignments.shape[0])
        cluster_ids, _ = self.centroid_retriever.search(q, km=c0)
        parts = [
            self.in_cluster[int(j)].search(q, km=k)
            for j in cluster_ids if int(j) in self.in_cluster
        ]
        if not parts:
            return np.empty(0, np.int64), np.empty(0, np.float32)
        all_ids = np.concatenate([p[0] for p in parts])
        all_scores = np.concatenate([p[1] for p in parts])
        top = top_k(all_scores, k)
        return all_ids[top], all_scores[top]

    # ------------------------------------------------------------------ stats
    def memory_footprint(self) -> int:
        """Index-only bytes (embeddings excluded), as in Table 5.

        Every in-cluster retriever hashes with a view of ``self.planes``, so
        the in-cluster plane bytes are that one tensor's, not a sum over
        the views.
        """
        total = self.report.stage1_bytes + sum(
            cm.nbytes - cm.esklsh.planes.nbytes for cm in self.in_cluster.values()
        )
        if self.planes is not None:
            total += self.planes.nbytes
        return total
