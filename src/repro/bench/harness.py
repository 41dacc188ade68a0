"""Method × dataset evaluation harness (paper §7.1–7.2).

Builds each of the nine methods with the paper's §7.1.2 settings scaled to
our dataset family, runs a query workload, and reports quality (MRR@10 /
NDCG@10) plus AQT — the rows of Table 2 and the curves of Fig. 4.
"""
from __future__ import annotations

import time

import numpy as np

from repro.baselines import (
    ANNIndex,
    FlatIndex,
    IVFPQHNSWIndex,
    IVFPQIndex,
    MultiProbeLSHIndex,
    OPQIndex,
    PCAPQIndex,
    PQIndex,
    SKLSHIndex,
)
from repro.core.lider import LIDER, LIDERConfig, check_corpus
from repro.embeddings.corpus import QuerySet
from repro.metrics import measure_aqt, mrr_at_k, ndcg_at_k

METRIC_K = 10  # quality is MRR@10 or NDCG@10, as in the paper


class LiderIndex(ANNIndex):
    """ANNIndex adapter around the two-layer LIDER."""

    name = "LIDER"

    def __init__(self, config: LIDERConfig | None = None):
        super().__init__()
        self.lider = LIDER(config or LIDERConfig())

    def fit(self, emb: np.ndarray, ids: np.ndarray | None = None) -> "LiderIndex":
        self._set_ids(np.asarray(emb).shape[0], ids)
        self.lider.fit(np.asarray(emb), self.ids)
        return self

    def search(self, q: np.ndarray, k: int) -> np.ndarray:
        ids, _ = self.lider.search(q, k)
        return ids

    @property
    def nbytes(self) -> int:
        return self.lider.memory_footprint()


# Factory per method name. Parameters the paper derives from the dataset
# size N (e.g. SK-LSH's M=ceil(log2 N), IVF's C=sqrt(N)) are resolved inside
# the index implementations at fit time.
METHODS: dict[str, callable] = {
    "Flat": FlatIndex,
    "PQ": PQIndex,
    "OPQ": OPQIndex,
    "PCA-PQ": PCAPQIndex,
    "IVFPQ": IVFPQIndex,
    "IVFPQ-HNSW": IVFPQHNSWIndex,
    "FALCONN": lambda: MultiProbeLSHIndex(h=24),
    "SK-LSH": lambda: SKLSHIndex(h=24),
    "LIDER": LiderIndex,
}


def build_method(name: str, emb: np.ndarray, ids: np.ndarray | None = None) -> tuple[ANNIndex, float]:
    """Construct + fit one method on a corpus ``check_corpus`` accepts;
    returns (index, build seconds)."""
    emb, ids = check_corpus(emb, ids)
    idx = METHODS[name]()
    t0 = time.perf_counter()
    idx.fit(emb, ids)
    return idx, time.perf_counter() - t0


def evaluate(
    index: ANNIndex,
    queries: QuerySet,
    *,
    k: int = 100,
    metric: str = "mrr",
) -> tuple[float, float, float]:
    """(quality, AQT seconds, median seconds per query) on one query
    workload. k=100 retrieved as in the paper; quality measured @10."""
    ranked, seconds = measure_aqt(lambda q: index.search(q, k), queries.emb)
    ranked = [list(map(int, r)) for r in ranked]
    if metric == "mrr":
        quality = mrr_at_k(ranked, queries.relevant, METRIC_K)
    elif metric == "ndcg":
        if queries.qrels is None:
            raise ValueError("ndcg needs graded qrels (make_queries(graded=True))")
        quality = ndcg_at_k(ranked, queries.qrels, METRIC_K)
    else:
        raise ValueError(f"unknown metric {metric!r}")
    return quality, float(np.mean(seconds)), float(np.median(seconds))

