"""LIDER — the clustering-based two-layer learned index (paper §3.2, §3.3.2).

Build (staged as Table 5 reports; the paper's Stage 2, a learned
*centroids retriever*, is not built — see :class:`CentroidScan`):
  * Stage 1 — spherical k-means clusters the corpus into ``c`` groups;
  * Stage 3 — ``LIDER.fit`` permutes the corpus once into cluster order,
    fits one core model per cluster (the *in-cluster retrievers*) on its
    slice in one plain loop, and stacks their sorted rows and folded RMI
    parameters into one layout. Each core model sorts each hashkey array
    once and fits its RMIs from the sorted keys, over each child's
    contiguous run of the array. §3.3.2's parallel build was measured no
    faster, both as a thread pool over the clusters and as one Spark task
    per cluster, so the Spark build (``spark_build``) also ends in this
    loop. The sorted hashkeys the RMIs are fitted on are not kept: the RMI
    replaces the search over them.

Search: exact centroid scan → top-``c0`` clusters → one fused pass over
the probed clusters on the stacked layout (§4.3: the IRs' arrays expand
independently, so their work batches). A probed cluster whose H windows
of r0·k rows would reach most of it (``core_model.scans_whole``, α from
``results/gate_crossover.json``) skips them and is verified whole, one
einsum over its contiguous block: IVF-Flat's scan, a superset of the
windows' candidates. Over the rest: hash once, predict every (cluster,
array) location, gather every window with one ``np.take``, union per
cluster, verify by exact cosine. Then merge → global top-k. Each step is
a helper that ``CoreModel`` search runs as its one-cluster case, under
the same gate, so the per-cluster calls return what the fused pass
(``search_clusters``, which the Spark DataSource's reads run too) does.
A per-query thread pool (§3.3.2's parallel retrieval) measured slower at
this scale; the Spark DataSource likewise searches a query's probed
clusters in one partition.
"""
from __future__ import annotations

import time
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.core.core_model import (
    NORM_TOL, CoreModel, CoreModelConfig, check_corpus, check_k, check_query, rmi_locations,
    scans_whole, top_k, verify,
)
from repro.core.kmeans import spherical_kmeans
from repro.lsh.esklsh import query_keys, window_union

CENTROID_GROUP = -1  # seed group of the paper's learned CR (Table-5 ablation only)
# All in-cluster retrievers share one projection-seed group: clusters index
# disjoint data, so one (H, M, d) hyperplane tensor, drawn once per index at
# the largest cluster's hashkey length M (``LIDER.planes``), hashes every
# cluster with all M bits — counted once in the memory footprint.
IN_CLUSTER_GROUP = 0
# Vectors per cluster when ``LIDERConfig.c`` is None (the paper's 8.8k,
# scaled down with the corpus; see ``LIDERConfig``).
TARGET_CLUSTER_SIZE = 500


def check_clusters(
    assignments: np.ndarray | None, centroids: np.ndarray | None, shape: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Injected Stage-1 output for an (n, d) corpus as (float32 centroids,
    int32 assignments); ValueError unless both are given, ``centroids`` is
    a finite (c, d) array of unit rows (``CentroidScan`` ranks by
    ``centroids @ q``) and ``assignments`` an (n,) integer array with
    values in [0, c)."""
    if assignments is None or centroids is None:
        raise ValueError("assignments and centroids are injected together: pass both or neither")
    n, d = shape
    centroids = np.asarray(centroids)
    if centroids.ndim != 2 or centroids.shape[0] == 0 or centroids.shape[1] != d:
        raise ValueError(f"centroids have shape {centroids.shape}, expected (c, {d})")
    if not np.isfinite(centroids).all():
        raise ValueError("centroids have non-finite values")
    bad = np.flatnonzero(np.abs(np.linalg.norm(centroids, axis=1) - 1.0) > NORM_TOL)
    if bad.size:
        raise ValueError(f"centroids {bad[:5].tolist()} are not unit-norm")
    c = centroids.shape[0]
    assignments = np.asarray(assignments)
    if assignments.shape != (n,) or not np.issubdtype(assignments.dtype, np.integer):
        raise ValueError(
            f"assignments have shape {assignments.shape} and dtype {assignments.dtype}, "
            f"expected ({n},) integers"
        )
    lo, hi = int(assignments.min()), int(assignments.max())
    if lo < 0 or hi >= c:
        raise ValueError(f"assignments span [{lo}, {hi}], expected values in [0, {c})")
    return np.ascontiguousarray(centroids, dtype=np.float32), np.asarray(assignments, np.int32)


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

    c: int | None = None  # clusters; None → n // TARGET_CLUSTER_SIZE
    c0: int | None = None  # retrieved centroids; None → max(8, c // 50)
    h: int = 10
    w_centroids: int = 10
    w_incluster: int = 5
    r0: int = 4
    b: int = 3
    pad: int = 4
    rescale: bool = True
    base_seed: int = 1234
    kmeans_iters: int = 20

    def __post_init__(self):
        for name in ("c", "c0", "h", "w_incluster", "r0"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"LIDERConfig.{name} must be at least 1, got {value}")

    def resolve(self, n: int) -> tuple[int, int]:
        c = self.c if self.c is not None else max(4, min(n, n // TARGET_CLUSTER_SIZE))
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


@dataclass(eq=False)
class ClusterViews(Mapping):
    """``LIDER.in_cluster``: non-empty cluster j → a ``CoreModel`` over its
    slice of the layout, made on each access. Making one derives no keys;
    its ``esklsh.keys`` are derived when read, and kept on that view."""

    lider: "LIDER"

    def __contains__(self, j) -> bool:
        """Whether ``j`` is a non-empty cluster id, in O(1), making no view."""
        sizes = self.lider.sizes
        return isinstance(j, (int, np.integer)) and 0 <= j < sizes.shape[0] and bool(sizes[j])

    def __getitem__(self, j) -> CoreModel:
        if j not in self:
            raise KeyError(j)
        lider, part = self.lider, self.lider.part(j)
        return CoreModel.from_parts(
            lider.config.core_config(IN_CLUSTER_GROUP), lider.emb[part], lider.ids[part],
            lider.block(j), lider.roots[j], lider.children[j], planes=lider.planes,
        )

    def __iter__(self):
        return iter(np.flatnonzero(self.lider.sizes).tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self.lider.sizes))


class LIDER:
    """The two-layer index over one embedding corpus.

    Its state is one cluster-contiguous layout; each ``in_cluster[j]``
    retriever views its slice of it (``np.shares_memory``):

    * ``emb``/``ids``: the corpus and its ids permuted once into cluster
      order; cluster j holds rows ``offsets[j] : offsets[j] + sizes[j]``;
    * ``rows``: every cluster's (H, sizes[j]) sorted-row block back to back,
      one int32 array of H·n, cluster j's block from H·offsets[j];
    * ``roots`` (c, 3, H) and ``children`` (c, 3, H, W): the folded RMI
      parameters (zeros for an empty cluster);
    * ``planes`` (H, M, d): the one hyperplane tensor every cluster hashes
      with.

    No sorted keys are kept: search never reads them.
    """

    def __init__(self, config: LIDERConfig | None = None):
        self.config = config or LIDERConfig()
        self.centroids: np.ndarray | None = None  # (c, d)
        self.assignments: np.ndarray | None = None  # (n,)
        self.planes: np.ndarray | None = None  # (H, M, d) shared by the IRs
        self.emb = self.ids = self.offsets = self.sizes = None
        self.rows = self.roots = self.children = None
        self.report = BuildReport()

    @property
    def centroid_retriever(self) -> CentroidScan:
        """Picks the clusters a query probes."""
        return CentroidScan(self.centroids)

    @property
    def in_cluster(self) -> ClusterViews:
        """The in-cluster retrievers, by non-empty cluster id (read-only)."""
        return ClusterViews(self)

    # ------------------------------------------------------------------ build
    def fit(
        self,
        emb: np.ndarray,
        ids: np.ndarray | None = None,
        *,
        assignments: np.ndarray | None = None,
        centroids: np.ndarray | None = None,
    ) -> "LIDER":
        """Build Stages 1 and 3 over a corpus ``check_corpus`` accepts; both
        builds end here.

        ``assignments``/``centroids`` may be injected together (the Spark
        build clusters with pyspark.ml; :func:`check_clusters` checks them)
        — Stage 1 is then skipped but still timed. Stage 3 permutes the
        corpus into cluster order once (members in row order), fits each
        non-empty cluster's core model on its slice with the one plane
        tensor, without checking the slice again, and copies its sorted rows
        and folded RMI parameters into the stacked arrays, so no
        per-cluster copy outlives the build.
        """
        emb, ids = check_corpus(emb, ids)
        cfg = self.config

        t0 = time.perf_counter()
        if assignments is None and centroids is None:
            c, _ = cfg.resolve(emb.shape[0])
            centroids, assignments = spherical_kmeans(
                emb, c, n_iter=cfg.kmeans_iters, seed=cfg.base_seed
            )
        centroids, assignments = check_clusters(assignments, centroids, emb.shape)
        self.report.stage1_seconds = time.perf_counter() - t0

        t0 = time.perf_counter()
        self.centroids, self.assignments = centroids, assignments
        self.report.stage1_bytes = centroids.nbytes + assignments.nbytes
        c = centroids.shape[0]
        order = np.argsort(assignments, kind="stable")
        self.emb, self.ids = np.take(emb, order, axis=0), ids[order]
        self.sizes = np.bincount(assignments, minlength=c).astype(np.int64)
        self.offsets = np.cumsum(self.sizes) - self.sizes
        in_cfg = cfg.core_config(IN_CLUSTER_GROUP)
        h, w = in_cfg.h, in_cfg.width
        self.planes = in_cfg.hyperplanes(emb.shape[1], int(self.sizes.max()))
        self.rows = np.empty(h * emb.shape[0], dtype=np.int32)
        self.roots = np.zeros((c, 3, h))
        self.children = np.zeros((c, 3, h, w))
        for j in np.flatnonzero(self.sizes).tolist():
            part = self.part(j)
            cm = CoreModel(in_cfg)._fit(self.emb[part], self.ids[part], self.planes)
            self.block(j)[:], self.roots[j], self.children[j] = cm.esklsh.rows, cm.roots, cm.children
        self.report.stage3_bytes = self.memory_footprint()
        self.report.stage3_seconds = time.perf_counter() - t0
        return self

    # ----------------------------------------------------------------- search
    def part(self, j: int) -> slice:
        """Cluster j's rows of ``emb`` and ``ids``."""
        return slice(self.offsets[j], self.offsets[j] + self.sizes[j])

    def block(self, j: int) -> np.ndarray:
        """Cluster j's (H, sizes[j]) sorted rows, a view of ``rows``."""
        h = self.config.h
        return self.rows[h * self.offsets[j]:h * (self.offsets[j] + self.sizes[j])].reshape(h, -1)

    def search(self, q: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Top-k (external ids, cosine scores) for one query embedding: the
        probed clusters' :meth:`search_clusters` results, merged. Empty
        clusters are skipped.

        Returns ``min(k, candidates)`` ids: the candidates are the rows the
        probed clusters' windows reach, and every row of a cluster scanned
        whole (always so once r0·k covers it, e.g. k ≥ n). Raises
        ValueError for ``k < 1`` or a query ``check_query`` rejects.
        """
        if self.centroids is None:
            raise RuntimeError("search before fit")
        check_k(k)
        q = check_query(q, self.centroids.shape[1])
        _, c0 = self.config.resolve(self.assignments.shape[0])
        probed, _ = self.centroid_retriever.search(q, km=c0)
        probed = probed[self.sizes[probed] > 0]
        if probed.size == 0:
            return np.empty(0, np.int64), np.empty(0, np.float32)
        parts = self.search_clusters(q, probed, k)
        all_ids = np.concatenate([p[0] for p in parts])
        all_scores = np.concatenate([p[1] for p in parts])
        top = top_k(all_scores, k)
        return all_ids[top], all_scores[top]

    def search_clusters(
        self, q: np.ndarray, probed: np.ndarray, k: int
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Each probed cluster's top-k (ids, cosine scores), scores
        descending: what :meth:`search` merges and the Spark DataSource
        yields. ``probed`` is an array of non-empty cluster ids. A cluster
        whose windows would reach most of it (:func:`scans_whole`) skips
        them and is verified whole. For the rest: hash once, predict all
        (clusters, H) locations, gather every window with one ``np.take``
        and union per cluster, then verify each cluster's candidates against
        its rows of ``emb``."""
        offsets, sizes = self.offsets[probed], self.sizes[probed]
        r = self.config.r0 * k
        cands: list[np.ndarray | None] = [None] * len(sizes)
        windowed = np.flatnonzero(~scans_whole(self.planes.shape[0], r, sizes))
        if windowed.size:
            wp, wo, wn = probed[windowed], offsets[windowed], sizes[windowed]
            keys = query_keys(self.planes, q)
            length = wn[:, None].astype(np.float64)
            locs = rmi_locations(self.roots[wp], self.children[wp], length, keys)
            for i, rows in zip(windowed.tolist(), window_union(self.rows, wo, wn, locs, r)):
                cands[i] = rows
        return [
            verify(self.emb[o:o + n], self.ids[o:o + n], rows, q, k)
            for o, n, rows in zip(offsets.tolist(), sizes.tolist(), cands)
        ]

    # ------------------------------------------------------------------ stats
    def memory_footprint(self) -> int:
        """Index-only bytes (embeddings excluded), as in Table 5: Stage 1's
        centroids and assignments, and the layout's ids, sorted rows, RMI
        parameters and hyperplanes. It holds no sorted keys (EXPERIMENTS.md,
        "Deviation: no stored keys")."""
        layout = (self.ids, self.rows, self.roots, self.children, self.planes)
        return self.report.stage1_bytes + sum(a.nbytes for a in layout)
