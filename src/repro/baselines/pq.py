"""Product-quantization baselines: PQ, OPQ and PCA-PQ (paper §7.1.2 (2)–(4)).

* **PQ** (Jégou et al. 2010): split the d dims into ``m`` segments, learn a
  2^b-entry codebook per segment by k-means, encode each vector as m codes,
  and score queries asymmetrically through per-segment inner-product
  lookup tables (ADC).
* **OPQ** (Ge et al. 2013): additionally learns an orthonormal rotation R by
  alternating PQ training and a Procrustes solve, so segments carry
  balanced variance.
* **PCA-PQ** (Jégou et al. 2010b): projects to ``pca_dim`` dims with PCA
  first (the paper reduces 768 → 192), then applies PQ in the reduced space.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.base import ANNIndex
from repro.core.core_model import top_k


# Each PQ codebook: Lloyd iterations, on at most this many training rows.
SEGMENT_ITERS = 8
SEGMENT_SAMPLE_CAP = 20_000


def segment_kmeans(x: np.ndarray, k: int, *, seed: int = 0) -> np.ndarray:
    """Plain L2 Lloyd's k-means for one PQ segment → (k, d_seg) codebook."""
    x = np.asarray(x, dtype=np.float32)
    g = np.random.default_rng(seed)
    cap = SEGMENT_SAMPLE_CAP
    train = x if x.shape[0] <= cap else x[g.choice(x.shape[0], cap, replace=False)]
    k = min(k, train.shape[0])
    cb = train[g.choice(train.shape[0], k, replace=False)].copy()
    for _ in range(SEGMENT_ITERS):
        # argmin |x-c|^2 == argmin (|c|^2 - 2 x·c); |x|^2 is constant per row.
        d2 = -2.0 * train @ cb.T + (cb**2).sum(1)[None, :]
        labels = np.argmin(d2, axis=1)
        for j in range(k):
            members = train[labels == j]
            if members.shape[0]:
                cb[j] = members.mean(axis=0)
            else:
                cb[j] = train[g.integers(0, train.shape[0])]
    return cb


class _PQCodec:
    """Shared PQ machinery: codebooks, encode, IP lookup tables."""

    def __init__(self, m: int, b: int, seed: int = 0):
        if m <= 0 or b <= 0:
            raise ValueError("m and b must be positive")
        self.m, self.b, self.seed = m, b, seed
        self.k = 2**b
        self.codebooks: list[np.ndarray] = []

    def _segments(self, x: np.ndarray) -> list[np.ndarray]:
        d = x.shape[1]
        if d % self.m != 0:
            raise ValueError(f"dim {d} not divisible by m={self.m}")
        w = d // self.m
        return [x[:, i * w : (i + 1) * w] for i in range(self.m)]

    def train(self, x: np.ndarray) -> "_PQCodec":
        self.codebooks = [
            segment_kmeans(seg, self.k, seed=self.seed + i)
            for i, seg in enumerate(self._segments(x))
        ]
        return self

    def encode(self, x: np.ndarray) -> np.ndarray:
        codes = np.empty((x.shape[0], self.m), dtype=np.uint8 if self.b <= 8 else np.uint16)
        for i, seg in enumerate(self._segments(x)):
            cb = self.codebooks[i]
            d2 = -2.0 * seg @ cb.T + (cb**2).sum(1)[None, :]
            codes[:, i] = np.argmin(d2, axis=1)
        return codes

    def decode(self, codes: np.ndarray) -> np.ndarray:
        return np.concatenate(
            [self.codebooks[i][codes[:, i]] for i in range(self.m)], axis=1
        )

    def ip_tables(self, q: np.ndarray) -> np.ndarray:
        """(m, 2^b) table of q_seg · codebook entries (asymmetric scoring)."""
        q = np.asarray(q, dtype=np.float32)
        w = q.shape[0] // self.m
        return np.stack(
            [self.codebooks[i] @ q[i * w : (i + 1) * w] for i in range(self.m)]
        )

    def adc_scores(self, codes: np.ndarray, tables: np.ndarray) -> np.ndarray:
        """Approximate q·x for each encoded row by summing table lookups."""
        s = np.zeros(codes.shape[0], dtype=np.float32)
        for i in range(self.m):
            s += tables[i][codes[:, i]]
        return s

    @property
    def nbytes(self) -> int:
        return sum(cb.nbytes for cb in self.codebooks)


class PQIndex(ANNIndex):
    """Plain PQ with asymmetric-distance (ADC) scan over all codes."""

    name = "PQ"

    def __init__(self, m: int = 16, b: int = 8, seed: int = 0):
        super().__init__()
        self.codec = _PQCodec(m, b, seed)
        self.codes: np.ndarray | None = None

    def _transform(self, x: np.ndarray) -> np.ndarray:
        """Pre-encoding transform (identity for plain PQ)."""
        return np.asarray(x, dtype=np.float32)

    def fit(self, emb: np.ndarray, ids: np.ndarray | None = None) -> "PQIndex":
        emb = np.ascontiguousarray(emb, dtype=np.float32)
        self._set_ids(emb.shape[0], ids)
        x = self._fit_transform(emb)
        self.codec.train(x)
        self.codes = self.codec.encode(x)
        return self

    def _fit_transform(self, emb: np.ndarray) -> np.ndarray:
        return self._transform(emb)

    def search(self, q: np.ndarray, k: int) -> np.ndarray:
        tq = self._transform(np.asarray(q, dtype=np.float32)[None, :])[0]
        scores = self.codec.adc_scores(self.codes, self.codec.ip_tables(tq))
        return self.ids[top_k(scores, k)]

    @property
    def nbytes(self) -> int:
        return self.codes.nbytes + self.codec.nbytes + self.ids.nbytes


class OPQIndex(PQIndex):
    """PQ after a learned orthonormal rotation (alternating optimisation)."""

    name = "OPQ"

    def __init__(self, m: int = 16, b: int = 8, seed: int = 0, opq_iters: int = 3):
        super().__init__(m, b, seed)
        self.opq_iters = opq_iters
        self.rotation: np.ndarray | None = None

    def _transform(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float32) @ self.rotation

    def _fit_transform(self, emb: np.ndarray) -> np.ndarray:
        d = emb.shape[1]
        g = np.random.default_rng(self.codec.seed + 999)
        # Identity init (non-parametric OPQ): the alternation can only
        # improve on plain PQ from here.
        self.rotation = np.eye(d, dtype=np.float32)
        sample = emb if emb.shape[0] <= 20_000 else emb[
            g.choice(emb.shape[0], 20_000, replace=False)
        ]
        for _ in range(self.opq_iters):
            xr = sample @ self.rotation
            self.codec.train(xr)
            y = self.codec.decode(self.codec.encode(xr))
            # Procrustes: min_R ||X R − Y||_F with R orthonormal.
            u, _, vt = np.linalg.svd(sample.T @ y)
            self.rotation = (u @ vt).astype(np.float32)
        return emb @ self.rotation


class PCAPQIndex(PQIndex):
    """PQ in a PCA-reduced space (the paper reduces 768 → 192, i.e. d/4)."""

    name = "PCA-PQ"

    def __init__(self, m: int = 16, b: int = 8, seed: int = 0, pca_dim: int | None = None):
        super().__init__(m, b, seed)
        self.pca_dim = pca_dim
        self.projection: np.ndarray | None = None  # (d, pca_dim)

    def _transform(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float32) @ self.projection

    def _fit_transform(self, emb: np.ndarray) -> np.ndarray:
        d = emb.shape[1]
        out_dim = self.pca_dim or max(self.codec.m, 3 * d // 4)
        if out_dim % self.codec.m != 0:
            raise ValueError("pca_dim must be divisible by m")
        g = np.random.default_rng(self.codec.seed + 123)
        sample = emb if emb.shape[0] <= 50_000 else emb[
            g.choice(emb.shape[0], 50_000, replace=False)
        ]
        # Uncentered PCA keeps inner products comparable after projection.
        _, _, vt = np.linalg.svd(sample, full_matrices=False)
        self.projection = vt[:out_dim].T.astype(np.float32)
        return emb @ self.projection
