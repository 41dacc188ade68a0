"""Spherical k-means for LIDER Stage 1 (paper §3.2 — "the clusters are
generated simply by k-means clustering").

The paper clusters cosine-similarity embeddings (FAISS k-means on
normalized vectors); the natural equivalent is spherical k-means: assign
by maximum inner product, update centroids as normalized member means.
Lloyd iterations run on a capped sample for speed (the paper notes Stage 1
dominates build time and suggests approximating it), followed by one full
assignment pass.
"""
from __future__ import annotations

import numpy as np


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(x, axis=1, keepdims=True)
    return x / np.maximum(n, 1e-12)


def assign_clusters(x: np.ndarray, centroids: np.ndarray, *, chunk: int = 65536) -> np.ndarray:
    """Assign each row of ``x`` to its max-inner-product centroid."""
    out = np.empty(x.shape[0], dtype=np.int32)
    for s in range(0, x.shape[0], chunk):
        out[s : s + chunk] = np.argmax(x[s : s + chunk] @ centroids.T, axis=1)
    return out


def spherical_kmeans(
    x: np.ndarray,
    c: int,
    *,
    n_iter: int = 20,
    sample_cap: int = 50_000,
    seed: int = 11,
) -> tuple[np.ndarray, np.ndarray]:
    """Cluster unit vectors into ``c`` groups.

    Returns (centroids (c, d) unit-norm, assignments (n,) int32).
    Deterministic in ``seed``. Empty clusters are re-seeded from random
    points so exactly ``c`` non-degenerate centroids come back.
    """
    x = np.asarray(x, dtype=np.float32)
    n = x.shape[0]
    if not 1 <= c <= n:
        raise ValueError(f"need 1 <= c <= n, got c={c}, n={n}")
    g = np.random.default_rng(seed)
    train = x if n <= sample_cap else x[g.choice(n, sample_cap, replace=False)]
    centroids = train[g.choice(train.shape[0], c, replace=False)].copy()
    for _ in range(n_iter):
        labels = assign_clusters(train, centroids)
        # One stable sort per iteration (a radix sort on the narrowest label
        # dtype): cluster j's members are a run of the order, in row order,
        # as a boolean mask would pick them.
        order = np.argsort(labels.astype(np.min_scalar_type(c - 1)), kind="stable")
        ends = np.cumsum(np.bincount(labels, minlength=c)).tolist()
        for j, (s, e) in enumerate(zip([0, *ends[:-1]], ends)):
            if s == e:
                centroids[j] = train[g.integers(0, train.shape[0])]
            else:
                centroids[j] = np.take(train, order[s:e], axis=0).mean(axis=0)
        centroids = _normalize_rows(centroids).astype(np.float32)
    return centroids, assign_clusters(x, centroids)
