"""Flat: exhaustive exact k-NN — the paper's quality upper bound."""
from __future__ import annotations

import numpy as np

from repro.baselines.base import ANNIndex
from repro.core.core_model import top_k


class FlatIndex(ANNIndex):
    """Brute-force inner-product scan (exact)."""

    name = "Flat"

    def fit(self, emb: np.ndarray, ids: np.ndarray | None = None) -> "FlatIndex":
        self.emb = np.ascontiguousarray(emb, dtype=np.float32)
        self._set_ids(self.emb.shape[0], ids)
        return self

    def search(self, q: np.ndarray, k: int) -> np.ndarray:
        scores = self.emb @ np.asarray(q, dtype=np.float32)
        return self.ids[top_k(scores, k)]

    @property
    def nbytes(self) -> int:
        # Flat keeps no structure beyond the ids (embeddings are the data).
        return self.ids.nbytes
