"""LIDER — the clustering-based two-layer learned index (paper §3.2, §3.3.2).

Build (staged exactly as Table 5 reports):
  * Stage 1 — spherical k-means clusters the corpus into ``c`` groups;
  * Stage 2 — one core model over the centroids (the *centroids retriever*);
  * Stage 3 — one core model per cluster (the *in-cluster retrievers*),
    built in a thread pool (clusters are independent).

Search: centroids retriever → top-``c0`` clusters → in-cluster retrievers
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

from repro.core.core_model import CoreModel, CoreModelConfig
from repro.core.kmeans import spherical_kmeans

CENTROID_GROUP = -1  # projection-seed group id of the centroids retriever
# All in-cluster retrievers share one projection-seed group: clusters index
# disjoint data, so one physical family of hyperplanes (sliced to each
# cluster's hashkey length) serves every cluster — the planes are numpy
# views of a single cached matrix, counted once in the memory footprint.
IN_CLUSTER_GROUP = 0


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


@dataclass
class BuildReport:
    """Per-stage wall-clock and post-stage index memory (Table 5 rows)."""

    stage1_seconds: float = 0.0
    stage2_seconds: float = 0.0
    stage3_seconds: float = 0.0
    stage1_bytes: int = 0
    stage2_bytes: int = 0
    stage3_bytes: int = 0


class LIDER:
    """The two-layer index over one embedding corpus."""

    def __init__(self, config: LIDERConfig | None = None):
        self.config = config or LIDERConfig()
        self.centroids: np.ndarray | None = None  # (c, d)
        self.assignments: np.ndarray | None = None  # (n,)
        self.centroid_retriever: CoreModel | None = None
        self.in_cluster: dict[int, CoreModel] = {}
        self.report = BuildReport()

    # ------------------------------------------------------------------ build
    def fit(
        self,
        emb: np.ndarray,
        ids: np.ndarray | None = None,
        *,
        assignments: np.ndarray | None = None,
        centroids: np.ndarray | None = None,
    ) -> "LIDER":
        """Build all three stages.

        ``assignments``/``centroids`` may be injected (the Spark build path
        clusters with pyspark.ml) — Stage 1 is then skipped but still timed.
        """
        emb = np.ascontiguousarray(emb, dtype=np.float32)
        n = emb.shape[0]
        ids = np.arange(n, dtype=np.int64) if ids is None else np.asarray(ids, np.int64)
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
        self.centroid_retriever = CoreModel(
            CoreModelConfig(
                h=cfg.h, width=cfg.w_centroids, r0=cfg.r0, b=cfg.b, pad=cfg.pad,
                rescale=cfg.rescale, base_seed=cfg.base_seed, group=CENTROID_GROUP,
            )
        ).fit(self.centroids, np.arange(c_actual, dtype=np.int64))
        self.report.stage2_seconds = time.perf_counter() - t0
        self.report.stage2_bytes = self.report.stage1_bytes + self.centroid_retriever.nbytes

        t0 = time.perf_counter()
        members = {
            j: np.flatnonzero(self.assignments == j) for j in range(c_actual)
        }

        def _build(j: int) -> tuple[int, CoreModel | None]:
            rows = members[j]
            if rows.size == 0:
                return j, None
            cm = CoreModel(
                CoreModelConfig(
                    h=cfg.h, width=cfg.w_incluster, r0=cfg.r0, b=cfg.b, pad=cfg.pad,
                    rescale=cfg.rescale, base_seed=cfg.base_seed, group=IN_CLUSTER_GROUP,
                )
            ).fit(emb[rows], ids[rows])
            return j, cm

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
        """Top-k (external ids, cosine scores) for one query embedding."""
        if self.centroid_retriever is None:
            raise RuntimeError("search before fit")
        q = np.asarray(q, dtype=np.float32)
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
        kk = min(k, all_ids.size)
        if kk == 0:
            return all_ids, all_scores
        top = np.argpartition(-all_scores, kk - 1)[:kk]
        top = top[np.argsort(-all_scores[top])]
        return all_ids[top], all_scores[top]

    # ------------------------------------------------------------------ stats
    def memory_footprint(self) -> int:
        """Index-only bytes (embeddings excluded), as in Table 5.

        The in-cluster retrievers share one hyperplane family (numpy views
        of a single cached matrix), so plane bytes are counted once — at
        the largest slice any cluster uses — not per cluster.
        """
        total = self.report.stage1_bytes
        if self.centroid_retriever is not None:
            total += self.centroid_retriever.nbytes
        total += sum(
            cm.nbytes - cm.planes_nbytes for cm in self.in_cluster.values()
        )
        total += max(
            (cm.planes_nbytes for cm in self.in_cluster.values()), default=0
        )
        return total
