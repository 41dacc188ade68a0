"""Common interface all ANN indexes (baselines and LIDER's adapter) share."""
from __future__ import annotations

import abc

import numpy as np


class ANNIndex(abc.ABC):
    """fit(embeddings[, ids]) then search(query, k) → ranked external ids.

    Embeddings are unit-norm float32 rows; similarity is cosine == inner
    product (the paper normalizes for exactly this equivalence, §7.1.1).
    """

    name: str = "ann"

    def __init__(self):
        self.ids: np.ndarray | None = None

    @abc.abstractmethod
    def fit(self, emb: np.ndarray, ids: np.ndarray | None = None) -> "ANNIndex":
        ...

    @abc.abstractmethod
    def search(self, q: np.ndarray, k: int) -> np.ndarray:
        """Top-k external ids, best first."""
        ...

    def _set_ids(self, n: int, ids: np.ndarray | None) -> np.ndarray:
        self.ids = (
            np.arange(n, dtype=np.int64) if ids is None else np.asarray(ids, dtype=np.int64)
        )
        if self.ids.shape[0] != n:
            raise ValueError("ids must align with embeddings")
        return self.ids
