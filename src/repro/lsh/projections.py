"""Hyperplane random-projection LSH (Charikar 2002) — the base model that
extends SK-LSH to cosine similarity (paper §4.1).

Each of the M hash functions is h_i(x) = 1[w_i · x > 0] with w_i a random
Gaussian direction; P[h(u) = h(v)] = 1 − θ(u,v)/π (Eq. 2), so keys of
similar vectors share long prefixes with high probability (Lemma 4.2).

Slice h of a core model's planes is seeded by (base_seed, group, h)
through numpy's SeedSequence, so the driver-side NumPy build and the
distributed Spark build generate bit-identical projections. The draw is
sequential, so the M-row slice is the first M rows of any longer draw
from the same seed.
"""
from __future__ import annotations

import numpy as np

from repro.lsh.hashkeys import key_length_check


def hyperplanes(
    dim: int, m: int, h: int, *, base_seed: int = 1234, group: int = 0
) -> np.ndarray:
    """(H, M, dim) float32 hyperplane normals: row i of slice h is w_i of
    compound function h.

    ``group`` distinguishes core models (e.g. -1 for the centroids
    retriever) so every core model hashes with its own planes.
    """
    if dim <= 0:
        raise ValueError("dim must be positive")
    key_length_check(m)
    out = np.empty((h, m, dim), dtype=np.float32)
    for i in range(h):
        # SeedSequence wants non-negative ints; shift so group=-1 (the
        # centroids retriever) is representable.
        g = np.random.default_rng([s + 2**31 for s in (base_seed, group, i)])
        out[i] = g.standard_normal((m, dim))
    return out
