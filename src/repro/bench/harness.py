"""Method × dataset evaluation harness (paper §7.1–7.2).

Builds each of the nine methods with the paper's §7.1.2 settings scaled to
our dataset family, runs a query workload, and reports quality (MRR@10 /
NDCG@10) plus AQT — the rows of Table 2 and the curves of Fig. 4.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

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


# Factory per method name; n is the dataset size (parameters that the paper
# derives from N — e.g. SK-LSH's M=ceil(log2 N), IVF's C=sqrt(N) — are
# resolved inside the index implementations).
METHODS: dict[str, callable] = {
    "Flat": lambda n: FlatIndex(),
    "PQ": lambda n: PQIndex(),
    "OPQ": lambda n: OPQIndex(),
    "PCA-PQ": lambda n: PCAPQIndex(),
    "IVFPQ": lambda n: IVFPQIndex(),
    "IVFPQ-HNSW": lambda n: IVFPQHNSWIndex(),
    "FALCONN": lambda n: MultiProbeLSHIndex(h=24),
    "SK-LSH": lambda n: SKLSHIndex(h=24),
    "LIDER": lambda n: LiderIndex(),
}


@dataclass
class EvalRow:
    """One (method, dataset, task) result."""

    method: str
    dataset: str
    task: str
    quality_metric: str
    quality: float
    aqt_seconds: float
    build_seconds: float
    index_bytes: int


def build_method(name: str, emb: np.ndarray, ids: np.ndarray | None = None) -> tuple[ANNIndex, float]:
    """Construct + fit one method on a corpus ``check_corpus`` accepts;
    returns (index, build seconds)."""
    emb, ids = check_corpus(emb, ids)
    idx = METHODS[name](emb.shape[0])
    t0 = time.perf_counter()
    idx.fit(emb, ids)
    return idx, time.perf_counter() - t0


def evaluate(
    index: ANNIndex,
    queries: QuerySet,
    *,
    k: int = 100,
    metric: str = "mrr",
    metric_k: int = 10,
) -> tuple[float, float]:
    """(quality, AQT seconds) on one query workload. k=100 retrieved as in
    the paper; quality measured @10."""
    ranked, aqt = measure_aqt(lambda q: index.search(q, k), queries.emb)
    ranked = [list(map(int, r)) for r in ranked]
    if metric == "mrr":
        quality = mrr_at_k(ranked, queries.relevant, metric_k)
    elif metric == "ndcg":
        if queries.qrels is None:
            raise ValueError("ndcg needs graded qrels (make_queries(graded=True))")
        quality = ndcg_at_k(ranked, queries.qrels, metric_k)
    else:
        raise ValueError(f"unknown metric {metric!r}")
    return quality, aqt


def run_method_on_task(
    method: str,
    dataset_name: str,
    emb: np.ndarray,
    task_name: str,
    queries: QuerySet,
    *,
    metric: str = "mrr",
    k: int = 100,
) -> EvalRow:
    idx, build_s = build_method(method, emb)
    quality, aqt = evaluate(idx, queries, k=k, metric=metric)
    return EvalRow(
        method=method,
        dataset=dataset_name,
        task=task_name,
        quality_metric=metric,
        quality=round(quality, 4),
        aqt_seconds=round(aqt, 6),
        build_seconds=round(build_s, 3),
        index_bytes=int(getattr(idx, "nbytes", 0)),
    )
