"""The core model — LIDER's basic indexing/search unit (paper §3.1, §3.3.1).

A core model combines:
  * ESK-LSH (H compound hashes → H sorted hashkey arrays),
  * a key re-scaling module per array,
  * one simplified RMI per array ("one RMI corresponds to one sorted array"),
  * candidate verification by exact cosine on the original embeddings.

Search (§3.3.1): query embedding → H query hashkeys → re-scaled RMI keys →
RMI-predicted locations → bi-directional expansion windows of width
R = r0·km on each array → union of candidates → exact scoring → top-km.

The re-scaler is a min-max map (§5.1) and every RMI model is linear
(§5.2), so each (re-scaler, model) pair is one affine map of the decimal
hashkey. ``fold_rmi`` collapses them at build time; the model then keeps
only stacked (H,) root and (H, W) child parameters.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.lsh.esklsh import ESKLSH, SortedKeyArray
from repro.rmi.rescale import KeyRescaler
from repro.rmi.rmi import _BIG, SimplifiedRMI


@dataclass
class CoreModelConfig:
    """Hyperparameters of one core model.

    ``pad`` extends the hashkey beyond ceil(log2 n) (§5.1: hashkeys long
    enough to avoid duplicates; capped at 50 bits total). ``r0`` is the
    expansion-range factor R = r0·km of Table 1. ``rescale=False`` is the
    Table-4 ablation arm.
    """

    h: int = 10
    width: int = 5
    r0: int = 4
    b: int = 3
    pad: int = 4
    rescale: bool = True
    base_seed: int = 1234
    group: int = 0

    def hashkey_bits(self, n: int) -> int:
        return min(50, max(4, math.ceil(math.log2(max(n, 2))) + self.pad))


def fold_rmi(rescaler: KeyRescaler, rmi: SimplifiedRMI) -> np.ndarray:
    """(3, 1 + W) rows A, X, B — root in column 0, then the W children: the
    fitted re-scaler composed with each linear model, A·(x − X) + B over the
    decimal hashkey x.

    Re-scaled keys are x' = (x − key_min)·(L−1)/span, so a model
    a·(x' − x_mean) + b becomes A = a·(L−1)/span,
    X = key_min + x_mean·span/(L−1), B = b. A degenerate array (span 0)
    maps every key to 0, where the fit gives a = 0: every model is the
    constant b. Without re-scaling the models are used as fitted. |A| is
    clamped at ``_BIG`` so no product with a ≤50-bit key overflows;
    clipped locations are unchanged.

    Folding reorders floating-point operations, so a prediction within an
    ulp of a rounding tie can land one location away from the unfolded
    per-array path; the tests pin exact equality on their corpora.
    """
    models = [rmi.root, *rmi.children]
    a = np.array([m.a for m in models])
    x = np.array([m.x_mean for m in models])
    b = np.array([m.b for m in models])
    if rescaler.enabled:
        span = rescaler.key_max - rescaler.key_min
        if span > 0:
            l1 = rescaler.array_length - 1
            a, x = a * l1 / span, rescaler.key_min + x * span / l1
        else:
            a, x = np.zeros_like(a), np.full_like(x, rescaler.key_min)
    return np.stack([np.clip(a, -_BIG, _BIG), x, b])


class CoreModel:
    """Index over one embedding collection (a cluster, or the centroids)."""

    def __init__(self, config: CoreModelConfig):
        self.config = config
        self.emb: np.ndarray | None = None  # (n, d) float32 unit rows
        self.ids: np.ndarray | None = None  # (n,) int64 external ids
        self.esklsh: ESKLSH | None = None
        # Folded RMI parameters (see fold_rmi): (H,) roots, (H, W) children.
        self.root_a = self.root_x = self.root_b = None
        self.child_a = self.child_x = self.child_b = None

    # ------------------------------------------------------------------ build
    def fit(self, emb: np.ndarray, ids: np.ndarray | None = None) -> "CoreModel":
        emb = np.ascontiguousarray(emb, dtype=np.float32)
        n = emb.shape[0]
        if n == 0:
            raise ValueError("cannot index an empty collection")
        self.emb = emb
        self.ids = (
            np.arange(n, dtype=np.int64) if ids is None else np.asarray(ids, dtype=np.int64)
        )
        if self.ids.shape[0] != n:
            raise ValueError("ids must align with embeddings")
        cfg = self.config
        m = cfg.hashkey_bits(n)
        self.esklsh = ESKLSH(
            emb.shape[1], m, cfg.h, base_seed=cfg.base_seed, group=cfg.group
        ).fit(emb)
        folded = []
        for arr in self.esklsh.arrays:
            rescaler = KeyRescaler(len(arr), enabled=cfg.rescale)
            rmi = SimplifiedRMI(cfg.width, len(arr)).fit(
                rescaler.fit_transform(arr.keys), np.arange(len(arr), dtype=np.float64)
            )
            folded.append(fold_rmi(rescaler, rmi))
        self._set_params(folded)
        return self

    @classmethod
    def from_parts(
        cls,
        config: CoreModelConfig,
        emb: np.ndarray,
        ids: np.ndarray,
        arrays: list[SortedKeyArray],
        folded: list[np.ndarray],
    ) -> "CoreModel":
        """Assemble a core model from externally built sorted arrays and
        their ``fold_rmi`` parameters (Spark build)."""
        cm = cls(config)
        cm.emb = np.ascontiguousarray(emb, dtype=np.float32)
        cm.ids = np.asarray(ids, dtype=np.int64)
        m = config.hashkey_bits(cm.emb.shape[0])
        cm.esklsh = ESKLSH(
            cm.emb.shape[1], m, config.h, base_seed=config.base_seed, group=config.group
        )
        cm.esklsh.arrays = arrays
        cm._set_params(folded)
        return cm

    def _set_params(self, folded: list[np.ndarray]) -> None:
        """Stack the H arrays' folded parameters, so one query's H location
        predictions are a handful of vectorised ops."""
        p = np.stack(folded, axis=1)  # (3, H, 1 + W)
        self.root_a, self.root_x, self.root_b = p[:, :, 0].copy()
        self.child_a, self.child_x, self.child_b = p[:, :, 1:].copy()
        self._l = float(self.ids.shape[0])
        self._w = self.config.width
        self._h_idx = np.arange(len(folded))

    # ----------------------------------------------------------------- search
    def predict_locations(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(H,) query hashkeys and (H,) RMI-predicted locations in [0, L−1]."""
        q_keys = self.esklsh.query_keys(q)
        x = q_keys.astype(np.float64)
        lmax = self._l - 1.0
        root = np.clip(self.root_a * (x - self.root_x) + self.root_b, 0.0, lmax)
        # root ≤ L−1, so the child index is < W without a clip.
        hj = (self._h_idx, (root * self._w / self._l).astype(np.int64))
        pred = self.child_a[hj] * (x - self.child_x[hj]) + self.child_b[hj]
        return q_keys, np.clip(np.rint(pred), 0.0, lmax).astype(np.int64)

    def candidate_rows(self, q: np.ndarray, km: int) -> np.ndarray:
        """Steps 1–4 of the core-model search: hash, predict, expand, union."""
        _, locs = self.predict_locations(q)
        return self.esklsh.candidate_rows(locs, max(1, self.config.r0 * km))

    def search(self, q: np.ndarray, km: int) -> tuple[np.ndarray, np.ndarray]:
        """Top-km (external ids, cosine scores), scores descending."""
        q = np.asarray(q, dtype=np.float32)
        rows = self.candidate_rows(q, km)
        if rows.size == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
        scores = self.emb[rows] @ q
        kk = min(km, rows.size)
        top = np.argpartition(-scores, kk - 1)[:kk]
        top = top[np.argsort(-scores[top])]
        return self.ids[rows[top]], scores[top]

    # ------------------------------------------------------------------ stats
    @property
    def n(self) -> int:
        return 0 if self.emb is None else self.emb.shape[0]

    @property
    def planes_nbytes(self) -> int:
        """Bytes of this model's hyperplane matrices (shared across core
        models in the same seed group — LIDER counts them once)."""
        return 0 if self.esklsh is None else self.esklsh.planes_nbytes

    @property
    def nbytes(self) -> int:
        """Index-only memory (paper Table 5 excludes the data embeddings)."""
        if self.esklsh is None:
            return 0
        params = (self.root_a, self.root_x, self.root_b, self.child_a, self.child_x, self.child_b)
        return self.esklsh.nbytes + sum(p.nbytes for p in params) + self.ids.nbytes
