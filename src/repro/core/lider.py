"""LIDER — the clustering-based two-layer learned index (paper §3.2, §3.3.2).

Build (staged as Table 5 reports; the paper's Stage 2, a learned
*centroids retriever*, is not built — see :class:`CentroidScan`):
  * Stage 1 — spherical k-means clusters the corpus into ``c`` groups;
  * Stage 3 — the corpus is permuted once into cluster order, one core
    model per cluster (the *in-cluster retrievers*) is fitted on its slice
    in one plain loop (a thread pool over the clusters, §3.3.2's parallel
    build, measured no faster), and ``LIDER.assemble`` stacks their sorted
    rows and folded RMI parameters into one layout. The sorted hashkeys the
    RMIs are fitted on are not kept: the RMI replaces the search over them.

Search: exact centroid scan → top-``c0`` clusters → one fused pass over
the probed clusters on the stacked layout (§4.3: the IRs' arrays expand
independently, so their work batches): hash once, predict every (cluster,
array) location, gather every window with one ``np.take``, union per
cluster, verify each cluster by exact cosine → merge → global top-k. Each
step is a helper that ``CoreModel`` search runs as its one-cluster case,
so the per-cluster calls return what the fused pass (``search_clusters``,
which the Spark DataSource's reads run too) does. A per-query thread pool
(§3.3.2's parallel retrieval) measured slower at this scale; the Spark
DataSource likewise searches a query's probed clusters in one partition.
"""
from __future__ import annotations

import time
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.core.core_model import CoreModel, CoreModelConfig, rmi_locations, top_k, verify
from repro.core.kmeans import spherical_kmeans
from repro.lsh.esklsh import query_keys, window_union

CENTROID_GROUP = -1  # seed group of the paper's learned CR (Table-5 ablation only)
# All in-cluster retrievers share one projection-seed group: clusters index
# disjoint data, so one (H, M, d) hyperplane tensor, drawn once per index at
# the largest cluster's hashkey length M (``LIDER.planes``), serves every
# cluster through a ``[:, :M_j]`` view — counted once in the memory footprint.
IN_CLUSTER_GROUP = 0


NORM_TOL = 1e-3  # largest |‖x‖ − 1| a query or corpus row may have


def check_query(q: np.ndarray, dim: int) -> np.ndarray:
    """``q`` as a float32 vector; ValueError unless it has ``dim`` finite
    values and unit norm (the rule of :func:`check_corpus`)."""
    q = np.asarray(q, dtype=np.float32)
    if q.shape != (dim,):
        raise ValueError(f"query has shape {q.shape}, expected ({dim},)")
    if not np.isfinite(q).all():
        raise ValueError("query has non-finite values")
    norm = float(np.sqrt(q @ q))
    if abs(norm - 1.0) > NORM_TOL:
        raise ValueError(f"query has norm {norm:.6g}; LIDER needs unit-norm queries")
    return q


def check_corpus(emb: np.ndarray, ids: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``emb`` as contiguous float32 rows and ``ids`` as int64 (row positions
    when None); ValueError for non-finite rows, rows off unit norm, ids that
    do not align with the rows, or duplicate ids.

    Unit norm: LIDER scores by inner product and calls it cosine, which
    holds only for unit vectors, so every corpus row and every query
    (:func:`check_query`) must have ``|‖x‖ − 1| ≤ NORM_TOL``. Inputs are
    rejected, not normalised: a non-unit vector is a caller's bug, and a
    silent fix would hide it.
    """
    emb = np.ascontiguousarray(emb, dtype=np.float32)
    n = emb.shape[0]
    ids = np.arange(n, dtype=np.int64) if ids is None else np.asarray(ids, np.int64)
    if ids.shape != (n,):
        raise ValueError(f"ids have shape {ids.shape}, expected ({n},) to align with the rows")
    bad = np.flatnonzero(~np.isfinite(emb).all(axis=1))
    if bad.size:
        raise ValueError(f"corpus rows {bad[:5].tolist()} have non-finite values")
    bad = np.flatnonzero(np.abs(np.sqrt(np.einsum("ij,ij->i", emb, emb)) - 1.0) > NORM_TOL)
    if bad.size:
        raise ValueError(f"corpus rows {bad[:5].tolist()} are not unit-norm")
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
    c0: int | None = None  # retrieved centroids; None → max(8, c // 50)
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

    def __post_init__(self):
        for name in ("c", "c0", "target_cluster_size", "h", "w_incluster", "r0"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"LIDERConfig.{name} must be at least 1, got {value}")

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


@dataclass(eq=False)
class ClusterViews(Mapping):
    """``LIDER.in_cluster``: non-empty cluster j → a ``CoreModel`` over its
    slice of the layout, made on each access. Making one derives no keys;
    its ``esklsh.keys`` are derived when read, and kept on that view."""

    lider: "LIDER"

    def __getitem__(self, j) -> CoreModel:
        if j not in list(self):
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
    * ``planes`` (H, M, d) and ``shifts`` (c,): the one hyperplane tensor,
      and how many bits of a key at its length M cluster j's keys drop.

    No sorted keys are kept: search never reads them.
    """

    def __init__(self, config: LIDERConfig | None = None):
        self.config = config or LIDERConfig()
        self.centroids: np.ndarray | None = None  # (c, d)
        self.assignments: np.ndarray | None = None  # (n,)
        self.planes: np.ndarray | None = None  # (H, M, d) shared by the IRs
        self.emb = self.ids = self.offsets = self.sizes = self.shifts = None
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
        """Build Stages 1 and 3 over a corpus ``check_corpus`` accepts.

        ``assignments``/``centroids`` may be injected (the Spark build path
        clusters with pyspark.ml) — Stage 1 is then skipped but still timed.
        """
        emb, ids = check_corpus(emb, ids)
        cfg = self.config
        c, _ = cfg.resolve(emb.shape[0])

        t0 = time.perf_counter()
        if assignments is None or centroids is None:
            centroids, assignments = spherical_kmeans(
                emb, c, n_iter=cfg.kmeans_iters, seed=cfg.base_seed
            )
        self.report.stage1_seconds = time.perf_counter() - t0

        in_cfg = cfg.core_config(IN_CLUSTER_GROUP)

        def fit_cluster(j, emb_j, planes):
            cm = CoreModel(in_cfg).fit(emb_j, planes=planes)
            return cm.esklsh.rows, cm.roots, cm.children

        t0 = time.perf_counter()
        self.assemble(emb, ids, centroids, assignments, fit_cluster)
        self.report.stage3_seconds = time.perf_counter() - t0
        return self

    def assemble(self, emb, ids, centroids, assignments, fit_cluster) -> None:
        """Fill the layout from Stage 1's output; both builds call this.

        The corpus is permuted into cluster order once (members in row
        order); ``fit_cluster(j, emb_j, planes)`` then returns cluster j's
        (H, n_j) sorted rows and (3, H) / (3, H, W) folded RMI parameters,
        fitted on its slice and hashed with ``planes``. They are copied into
        the stacked arrays as they arrive, so no per-cluster copy outlives
        the build.
        """
        self.centroids = np.ascontiguousarray(centroids, dtype=np.float32)
        self.assignments = np.asarray(assignments, dtype=np.int32)
        self.report.stage1_bytes = self.centroids.nbytes + self.assignments.nbytes
        c = self.centroids.shape[0]
        order = np.argsort(self.assignments, kind="stable")
        self.emb, self.ids = np.take(emb, order, axis=0), ids[order]
        self.sizes = np.bincount(self.assignments, minlength=c).astype(np.int64)
        self.offsets = np.cumsum(self.sizes) - self.sizes
        in_cfg = self.config.core_config(IN_CLUSTER_GROUP)
        h, w = in_cfg.h, in_cfg.width
        self.planes = in_cfg.hyperplanes(emb.shape[1], int(self.sizes.max()))
        bits = np.array([in_cfg.hashkey_bits(int(s)) for s in self.sizes])
        self.shifts = (self.planes.shape[1] - bits).astype(np.uint64)
        self.rows = np.empty(h * emb.shape[0], dtype=np.int32)
        self.roots = np.zeros((c, 3, h))
        self.children = np.zeros((c, 3, h, w))

        for j in np.flatnonzero(self.sizes).tolist():
            fitted = fit_cluster(j, self.emb[self.part(j)], self.planes)
            self.block(j)[:], self.roots[j], self.children[j] = fitted
        self.report.stage3_bytes = self.memory_footprint()

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
        probed clusters' windows reach, every row once r0·k covers a
        cluster (e.g. k ≥ n). Raises ValueError for ``k < 1`` or a query
        ``check_query`` rejects.
        """
        if self.centroids is None:
            raise RuntimeError("search before fit")
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        q = check_query(q, self.centroids.shape[1])
        _, c0 = self.config.resolve(self.assignments.shape[0])
        probed, _ = self.centroid_retriever.search(q, km=c0)
        probed = probed[self.sizes[probed] > 0]
        if probed.size == 0:
            return np.empty(0, np.int64), np.empty(0, np.float32)
        parts = self.search_clusters(q, probed, k, [self.emb[self.part(j)] for j in probed])
        all_ids = np.concatenate([p[0] for p in parts])
        all_scores = np.concatenate([p[1] for p in parts])
        top = top_k(all_scores, k)
        return all_ids[top], all_scores[top]

    def search_clusters(
        self, q: np.ndarray, probed: np.ndarray, k: int, embs: list[np.ndarray]
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Each probed cluster's top-k (ids, cosine scores), scores
        descending: what :meth:`search` merges and the Spark DataSource
        yields. ``probed`` holds non-empty cluster ids, ``embs`` their rows.
        Hash once and shift per cluster, predict all (clusters, H)
        locations, gather every window with one ``np.take`` and union per
        cluster, then verify each cluster."""
        offsets, sizes = self.offsets[probed], self.sizes[probed]
        keys = query_keys(self.planes, q, self.shifts[probed, None])
        length = sizes[:, None].astype(np.float64)
        locs = rmi_locations(self.roots[probed], self.children[probed], length, keys)
        cands = window_union(self.rows, offsets, sizes, locs, self.config.r0 * k)
        return [
            verify(emb, self.ids[o:o + n], rows, q, k)
            for emb, o, n, rows in zip(embs, offsets.tolist(), sizes.tolist(), cands)
        ]

    # ------------------------------------------------------------------ stats
    def memory_footprint(self) -> int:
        """Index-only bytes (embeddings excluded), as in Table 5: Stage 1's
        centroids and assignments, and the layout's ids, sorted rows, RMI
        parameters and hyperplanes. It holds no sorted keys (EXPERIMENTS.md,
        "Deviation: no stored keys")."""
        layout = (self.ids, self.rows, self.roots, self.children, self.planes)
        return self.report.stage1_bytes + sum(a.nbytes for a in layout)
