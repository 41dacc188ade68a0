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
only stacked (3, H) root and (3, H, W) child parameters.

The search steps are module-level helpers — ``query_keys`` (hash at the
shared tensor's full length, then shift), ``rmi_locations``,
``window_union`` and ``verify`` — that take any number of clusters.
``CoreModel`` search is their one-cluster case and ``LIDER.search`` runs
them over all probed clusters at once, on its layout; ``LIDER.in_cluster``
views a slice of it as a core model (``from_parts``, no stored keys).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.lsh.esklsh import ESKLSH
from repro.lsh.projections import hyperplanes
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

    def hyperplanes(self, dim: int, n: int) -> np.ndarray:
        """(H, M, dim) planes of this config's seed group, M the hashkey
        length of ``n`` vectors; a model over fewer vectors in the same
        group hashes with a ``[:, :M]`` view of them."""
        return hyperplanes(
            dim, self.hashkey_bits(n), self.h, base_seed=self.base_seed, group=self.group
        )


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


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Positions of the ``min(k, scores.size)`` largest scores, descending."""
    kk = min(k, scores.size)
    if kk == 0:
        return np.empty(0, dtype=np.int64)
    top = np.argpartition(-scores, kk - 1)[:kk]
    return top[np.argsort(-scores[top])]


def rmi_locations(
    roots: np.ndarray, children: np.ndarray, length, keys: np.ndarray
) -> np.ndarray:
    """RMI-predicted locations in [0, length − 1] of (..., H) query keys.

    ``roots`` (..., 3, H) and ``children`` (..., 3, H, W) stack the A, X, B
    rows of :func:`fold_rmi` — one model's, or one per probed cluster with
    ``length`` (clusters, 1) — so any number of arrays costs the same ops.
    """
    x = keys.astype(np.float64)
    lmax = length - 1.0
    a, xm, b = (roots[..., i, :] for i in range(3))
    root = np.clip(a * (x - xm) + b, 0.0, lmax)
    # root ≤ L−1, so the child index is < W without a clip.
    child = (root * children.shape[-1] / length).astype(np.int64)
    picked = np.take_along_axis(children, child[..., None, :, None], axis=-1)[..., 0]
    ca, cx, cb = (picked[..., i, :] for i in range(3))
    pred = ca * (x - cx) + cb
    return np.clip(np.rint(pred), 0.0, lmax).astype(np.int64)


def verify(
    emb: np.ndarray, ids: np.ndarray, rows: np.ndarray, q: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k of the candidate ``rows`` by exact cosine: (ids, scores),
    scores descending."""
    scores = np.take(emb, rows, axis=0) @ q
    top = top_k(scores, k)
    return ids[rows[top]], scores[top]


class CoreModel:
    """Index over one embedding collection (one cluster in LIDER)."""

    def __init__(self, config: CoreModelConfig):
        self.config = config
        self.emb: np.ndarray | None = None  # (n, d) float32 unit rows
        self.ids: np.ndarray | None = None  # (n,) int64 external ids
        self.esklsh: ESKLSH | None = None
        # Folded RMI parameters (see fold_rmi): the A, X, B rows of the
        # (3, H) roots and the (3, H, W) children.
        self.roots: np.ndarray | None = None
        self.children: np.ndarray | None = None

    # ------------------------------------------------------------------ build
    def fit(
        self,
        emb: np.ndarray,
        ids: np.ndarray | None = None,
        *,
        planes: np.ndarray | None = None,
    ) -> "CoreModel":
        """Build over ``emb``. ``planes`` is a longer tensor of this config's
        seed group to hash with the first bits of (LIDER's shared in-cluster
        planes); without it the model draws its own."""
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
        self.esklsh = self._esklsh(emb.shape[1], n, planes).fit(emb)
        folded = []
        for arr in self.esklsh.arrays:
            rescaler = KeyRescaler(len(arr), enabled=cfg.rescale)
            rmi = SimplifiedRMI(cfg.width, len(arr)).fit(
                rescaler.fit_transform(arr.keys), np.arange(len(arr), dtype=np.float64)
            )
            folded.append(fold_rmi(rescaler, rmi))
        p = np.stack(folded, axis=1)  # (3, H, 1 + W)
        self.roots, self.children = p[:, :, 0].copy(), p[:, :, 1:].copy()
        return self

    @classmethod
    def from_parts(
        cls,
        config: CoreModelConfig,
        emb: np.ndarray,
        ids: np.ndarray,
        rows: np.ndarray,
        roots: np.ndarray,
        children: np.ndarray,
        *,
        planes: np.ndarray | None = None,
    ) -> "CoreModel":
        """Assemble a core model from externally built (H, n) sorted rows and
        their (3, H) / (3, H, W) folded RMI parameters (e.g. views of a LIDER
        layout); ``planes`` as in :meth:`fit`. Its sorted keys are derived
        from ``emb`` and ``rows`` when first read."""
        cm = cls(config)
        cm.emb = np.ascontiguousarray(emb, dtype=np.float32)
        cm.ids = np.asarray(ids, dtype=np.int64)
        cm.esklsh = cm._esklsh(cm.emb.shape[1], cm.emb.shape[0], planes)
        cm.esklsh.x, cm.esklsh.rows = cm.emb, np.asarray(rows, dtype=np.int32)
        cm.roots, cm.children = roots, children
        return cm

    def _esklsh(self, dim: int, n: int, planes: np.ndarray | None) -> ESKLSH:
        """The ESK-LSH module that hashes ``n`` vectors with the first M bits
        of ``planes``, or with its own planes when ``planes`` is None."""
        m = self.config.hashkey_bits(n)
        if planes is None:
            return ESKLSH(self.config.hyperplanes(dim, n))
        if planes.shape[0] != self.config.h or planes.shape[1] < m or planes.shape[2] != dim:
            raise ValueError(
                f"planes of shape {planes.shape} cannot hash with H={self.config.h}, "
                f"M={m}, dim={dim}"
            )
        return ESKLSH(planes, m)

    # ----------------------------------------------------------------- search
    def predict_locations(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(H,) query hashkeys and (H,) RMI-predicted locations in [0, L−1]."""
        q_keys = self.esklsh.query_keys(q)
        return q_keys, rmi_locations(self.roots, self.children, float(self.n), q_keys)

    def candidate_rows(self, q: np.ndarray, km: int) -> np.ndarray:
        """Steps 1–4 of the core-model search: hash, predict, expand, union."""
        _, locs = self.predict_locations(q)
        return self.esklsh.candidate_rows(locs, self.config.r0 * km)

    def search(self, q: np.ndarray, km: int) -> tuple[np.ndarray, np.ndarray]:
        """Top-km (external ids, cosine scores), scores descending."""
        q = np.asarray(q, dtype=np.float32)
        return verify(self.emb, self.ids, self.candidate_rows(q, km), q, km)

    # ------------------------------------------------------------------ stats
    @property
    def n(self) -> int:
        return 0 if self.emb is None else self.emb.shape[0]

    @property
    def nbytes(self) -> int:
        """Index-only memory (paper Table 5 excludes the data embeddings)."""
        if self.esklsh is None:
            return 0
        return self.esklsh.nbytes + self.roots.nbytes + self.children.nbytes + self.ids.nbytes
