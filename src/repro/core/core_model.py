"""The core model — LIDER's basic indexing/search unit (paper §3.1, §3.3.1).

A core model combines:
  * ESK-LSH (H compound hashes → H sorted hashkey arrays),
  * a key re-scaling module per array,
  * one simplified RMI per array ("one RMI corresponds to one sorted array"),
  * candidate verification by exact cosine on the original embeddings.

Search (§3.3.1): query embedding → H query hashkeys → re-scaled RMI keys →
RMI-predicted locations → bi-directional expansion windows of width
R = r0·km on each array → union of candidates → exact scoring → top-km.
Where the H windows would reach most of the collection (``scans_whole``:
H·min(R, n) ≥ ``GATE_ALPHA``·n) the steps before scoring are skipped and
every row is scored, which costs less than gathering most of them and
returns a superset of the windows' candidates.

The re-scaler is a min-max map (§5.1) and every RMI model is linear
(§5.2), so each (re-scaler, model) pair is one affine map of the decimal
hashkey. ``fit_rmis`` fits every array's re-scaler and RMI from its
sorted keys and collapses them at build time; the model then keeps only
stacked (3, H) root and (3, H, W) child parameters.

The search steps are module-level helpers — ``scans_whole``,
``query_keys``, ``rmi_locations``, ``window_union`` and ``verify`` — that
take any number of clusters.
``CoreModel`` search is their one-cluster case and ``LIDER.search`` runs
them over all probed clusters at once, on its layout; ``LIDER.in_cluster``
views a slice of it as a core model (``from_parts``, no stored keys).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.lsh.esklsh import ESKLSH
from repro.lsh.hashkeys import hashkey_bits
from repro.lsh.projections import hyperplanes
from repro.rmi.rmi import _BIG, LinearModel

# Coverage share above which a probed cluster is scanned whole
# (``scans_whole``): the crossover (0.5668) of windowed and whole-cluster
# p50 over a k-sweep on MSL-200k at c=40, one BLAS thread, with two
# memory-streaming processes running (``results/gate_crossover.json``,
# written by ``jobs/gate_crossover.py``). The idle crossover is lower
# (0.36), so where the gate wins loaded it also wins idle. Read at call
# time: the job sets it to 0 or inf to force either path.
GATE_ALPHA = 0.57
NORM_TOL = 1e-3  # largest |‖x‖ − 1| a query or corpus row may have


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
        return hashkey_bits(n, self.pad)

    def hyperplanes(self, dim: int, n: int) -> np.ndarray:
        """(H, M, dim) planes of this config's seed group, M the hashkey
        length of ``n`` vectors."""
        return hyperplanes(
            dim, self.hashkey_bits(n), self.h, base_seed=self.base_seed, group=self.group
        )


def fit_rmis(keys: np.ndarray, width: int, rescale: bool) -> tuple[np.ndarray, np.ndarray]:
    """Folded (3, H) roots and (3, H, W) children: one key re-scaler (§5.1)
    and two-layer linear RMI (§5.2) per row of the (H, L) sorted hashkeys
    ``keys``, collapsed into rows A, X, B of models A·(x − X) + B over the
    decimal hashkey x.

    The keys are re-scaled as ``KeyRescaler`` does, in one (H, L)
    expression, and every model is a ``LinearModel.fit`` on the keys
    ``SimplifiedRMI`` gives it, in the same order, so the parameters equal
    the per-array chain's bit for bit. A root that routes monotonically
    (always with re-scaling: its slope is ≥ 0 on sorted keys) gives each
    child a contiguous run of the array, fitted on that slice; other roots
    route through one mask per child. An empty child copies the root.

    Folding: re-scaled keys are x' = (x − key_min)·(L−1)/span, so a model
    a·(x' − x_mean) + b becomes A = a·(L−1)/span,
    X = key_min + x_mean·span/(L−1), B = b. A degenerate array (span 0)
    maps every key to 0, where the fit gives a = 0: every model is the
    constant b. Without re-scaling the models are used as fitted. |A| is
    clamped at ``_BIG`` so no product with a ≤50-bit key overflows;
    clipped locations are unchanged. Folding reorders floating-point
    operations, so a prediction within an ulp of a rounding tie can land
    one location away from the unfolded path; the tests pin exact equality
    on their corpora.
    """
    h, length = keys.shape
    dec = keys.astype(np.float64)
    lo, span = dec[:, :1], dec[:, -1:] - dec[:, :1]
    spread = span > 0
    x = (dec - lo) / np.where(spread, span, 1.0) * float(length - 1) if rescale else dec
    pos = np.arange(length, dtype=np.float64)
    params = np.empty((3, h, 1 + width))
    for i, xi in enumerate(x):
        root = LinearModel.fit(xi, pos, length)
        params[:, i, 0] = root.a, root.x_mean, root.b
        pred = np.clip(root.predict(xi), 0, length - 1)
        child = np.clip(np.floor(pred * width / length).astype(np.int64), 0, width - 1)
        if (child[1:] >= child[:-1]).all():
            ends = np.searchsorted(child, np.arange(1, width + 1)).tolist()
            members = [slice(s, e) for s, e in zip([0, *ends[:-1]], ends)]
        else:
            members = [child == j for j in range(width)]
        for j, sel in enumerate(members, start=1):
            model = LinearModel.fit(xi[sel], pos[sel], length) if pos[sel].size else root
            params[:, i, j] = model.a, model.x_mean, model.b
    a, xm, b = params
    if rescale:
        a = np.where(spread, a * (length - 1) / np.where(spread, span, 1.0), 0.0)
        xm = np.where(spread, lo + xm * span / max(length - 1, 1), lo)
    p = np.stack([np.clip(a, -_BIG, _BIG), xm, b])
    return p[:, :, 0].copy(), p[:, :, 1:].copy()


def check_corpus(emb: np.ndarray, ids: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``emb`` as contiguous float32 rows and ``ids`` as int64 (row positions
    when None); ValueError for a corpus that is not a non-empty (n, d)
    array, non-finite rows, rows off unit norm, ids that do not align with
    the rows, or duplicate ids.

    Unit norm: LIDER scores by inner product and calls it cosine, which
    holds only for unit vectors, so every corpus row and every query
    (:func:`check_query`) must have ``|‖x‖ − 1| ≤ NORM_TOL``. Inputs are
    rejected, not normalised: a non-unit vector is a caller's bug, and a
    silent fix would hide it.
    """
    emb = np.ascontiguousarray(emb, dtype=np.float32)
    if emb.ndim != 2 or 0 in emb.shape:
        raise ValueError(f"corpus has shape {emb.shape}, expected a non-empty (n, d) array")
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


def check_k(k: int) -> int:
    """``k``; ValueError unless it is at least 1."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    return k


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Positions of the ``min(k, scores.size)`` largest scores, descending;
    ValueError for ``k < 1``."""
    kk = min(check_k(k), scores.size)
    if kk == 0:
        return np.empty(0, dtype=np.int64)
    top = np.argpartition(-scores, kk - 1)[:kk]
    return top[np.argsort(-scores[top])]


def rmi_locations(
    roots: np.ndarray, children: np.ndarray, length, keys: np.ndarray
) -> np.ndarray:
    """RMI-predicted locations in [0, length − 1] of (..., H) query keys.

    ``roots`` (..., 3, H) and ``children`` (..., 3, H, W) stack the A, X, B
    rows of :func:`fit_rmis` — one model's, or one per probed cluster with
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


def scans_whole(h: int, r: int, n):
    """Where a collection of ``n`` rows is scored whole instead of through
    its windows: H windows of width min(r, n) would fill at least
    ``GATE_ALPHA``·n slots, so they would reach most of it anyway.
    Elementwise over an array ``n`` (one size per probed cluster)."""
    return h * np.minimum(r, n) >= GATE_ALPHA * np.asarray(n)


def verify(
    emb: np.ndarray, ids: np.ndarray, rows: np.ndarray | None, q: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k by exact cosine of the candidate ``rows`` of ``emb``, or of
    every row when ``rows`` is None (a whole scan, no gather): (ids,
    scores), scores descending. Both score with one ``einsum``, whose sum
    runs within each row, so a row scores the same bit for bit either way."""
    scores = np.einsum("ij,j->i", emb if rows is None else np.take(emb, rows, axis=0), q)
    top = top_k(scores, k)
    return ids[top if rows is None else rows[top]], scores[top]


class CoreModel:
    """Index over one embedding collection (one cluster in LIDER)."""

    def __init__(self, config: CoreModelConfig):
        self.config = config
        self.emb: np.ndarray | None = None  # (n, d) float32 unit rows
        self.ids: np.ndarray | None = None  # (n,) int64 external ids
        self.esklsh: ESKLSH | None = None
        # Folded RMI parameters (see fit_rmis): the A, X, B rows of the
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
        """Build over a corpus :func:`check_corpus` accepts: sort its H
        hashkey arrays (``ESKLSH.fit``), then fit their folded RMIs from the
        sorted keys (:func:`fit_rmis`). ``planes`` is a tensor to hash with
        (LIDER's shared in-cluster planes); without it the model draws its
        own."""
        return self._fit(*check_corpus(emb, ids), planes)

    def _fit(self, emb: np.ndarray, ids: np.ndarray, planes: np.ndarray | None) -> "CoreModel":
        """:meth:`fit` over the float32 rows and int64 ids of a corpus that
        :func:`check_corpus` has accepted (LIDER's clusters are slices of one)."""
        cfg = self.config
        self.emb, self.ids = emb, ids
        self.esklsh = self._esklsh(emb.shape[1], emb.shape[0], planes).fit(emb)
        self.roots, self.children = fit_rmis(self.esklsh.keys, cfg.width, cfg.rescale)
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
        layout), hashing with ``planes`` as :meth:`fit` does. Its sorted keys
        are derived from ``emb`` and ``rows`` when first read."""
        cm = cls(config)
        cm.emb = np.ascontiguousarray(emb, dtype=np.float32)
        cm.ids = np.asarray(ids, dtype=np.int64)
        cm.esklsh = cm._esklsh(cm.emb.shape[1], cm.emb.shape[0], planes)
        cm.esklsh.x, cm.esklsh.rows = cm.emb, np.asarray(rows, dtype=np.int32)
        cm.roots, cm.children = roots, children
        return cm

    def _esklsh(self, dim: int, n: int, planes: np.ndarray | None) -> ESKLSH:
        """The ESK-LSH module that hashes ``n`` vectors with every bit of
        ``planes``, or with its own planes when ``planes`` is None."""
        if planes is None:
            return ESKLSH(self.config.hyperplanes(dim, n))
        m = self.config.hashkey_bits(n)
        if planes.shape[0] != self.config.h or planes.shape[1] < m or planes.shape[2] != dim:
            raise ValueError(
                f"planes of shape {planes.shape} cannot hash with H={self.config.h}, "
                f"M={m}, dim={dim}"
            )
        return ESKLSH(planes)

    # ----------------------------------------------------------------- search
    # The search calls raise ValueError for a query ``check_query`` rejects
    # and for ``km < 1``. Each checks ``q`` once; the steps they share take
    # the checked vector.
    def predict_locations(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(H,) query hashkeys and (H,) RMI-predicted locations in [0, L−1]."""
        return self._locations(check_query(q, self.emb.shape[1]))

    def _locations(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        q_keys = self.esklsh.query_keys(q)
        return q_keys, rmi_locations(self.roots, self.children, float(self.n), q_keys)

    def _windows(self, q: np.ndarray, km: int) -> np.ndarray | None:
        """Steps 1–4 of the core-model search on a checked ``q``: hash,
        predict, expand, union; None, with no step run, where the model is
        scanned whole (:func:`scans_whole`). Checks ``km``."""
        r = self.config.r0 * check_k(km)
        if scans_whole(self.config.h, r, self.n):
            return None
        return self.esklsh.candidate_rows(self._locations(q)[1], r)

    def candidate_rows(self, q: np.ndarray, km: int) -> np.ndarray:
        """The rows :meth:`search` verifies: the windows' union, or every
        row of a model scanned whole."""
        rows = self._windows(check_query(q, self.emb.shape[1]), km)
        return np.arange(self.n) if rows is None else rows

    def search(self, q: np.ndarray, km: int) -> tuple[np.ndarray, np.ndarray]:
        """Top-km (external ids, cosine scores), scores descending."""
        q = check_query(q, self.emb.shape[1])
        return verify(self.emb, self.ids, self._windows(q, km), q, km)

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
