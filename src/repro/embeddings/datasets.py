"""Named evaluation datasets (scaled-down stand-ins for the paper's) + Spark IO.

The paper evaluates on MS MARCO subsets (MS-100k … MS-8.8M) and Wiki-21M.
We mirror the family at ~1/44 scale (DESIGN.md §2): MSL-* share one
generative configuration (like the MS subsets share one passage
collection); WIKI-* uses a different seed/topic profile (like Wiki-21M is
a different collection with a different encoder).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.embeddings.corpus import EmbeddingCorpus, QuerySet, make_corpus, make_queries


@dataclass(frozen=True)
class FamilySpec:
    """One master collection; named datasets are prefix samples of it.

    Mirrors the paper: the MS-* subsets are samples of one 8.8M passage
    collection, so larger subsets are *denser* in the same semantic space
    and retrieval quality decays with scale (Table 2's left-to-right trend).
    """

    family: str
    master_n: int
    dim: int = 64
    n_topics: int | None = None  # None → master_n // 500
    seed: int = 7
    topic_spread: float = 0.55
    emb_noise: float = 0.35


@dataclass(frozen=True)
class DatasetSpec:
    """A named dataset: the first ``n`` passages of its family's master."""

    name: str
    family: str
    n: int
    paper_counterpart: str = ""


# Noise levels calibrated so exact search (Flat) scores ≈0.83 MRR@10 at the
# smallest scale decaying to ≈0.4 at the largest — the paper's Table-2 range
# (0.851 at MS-100k → 0.331 at MS-8.8M).
FAMILIES: dict[str, FamilySpec] = {
    "MSL": FamilySpec("MSL", 200_000, seed=7, topic_spread=0.45),
    "WIKI": FamilySpec("WIKI", 300_000, seed=23, topic_spread=0.45, emb_noise=0.4),
}

DATASETS: dict[str, DatasetSpec] = {
    s.name: s
    for s in [
        DatasetSpec("MSL-2k", "MSL", 2_000, "(unit-test scale)"),
        DatasetSpec("MSL-10k", "MSL", 10_000, "MS-100k"),
        DatasetSpec("MSL-30k", "MSL", 30_000, "MS-500k/MS-1M"),
        DatasetSpec("MSL-100k", "MSL", 100_000, "MS-4M"),
        DatasetSpec("MSL-200k", "MSL", 200_000, "MS-8.8M"),
        DatasetSpec("WIKI-200k", "WIKI", 200_000, "Wiki-21M (reduced)"),
        DatasetSpec("WIKI-300k", "WIKI", 300_000, "Wiki-21M"),
    ]
}

_MASTER_CACHE: dict[str, EmbeddingCorpus] = {}


def _master(family: str) -> EmbeddingCorpus:
    if family not in _MASTER_CACHE:
        f = FAMILIES[family]
        _MASTER_CACHE[family] = make_corpus(
            f.master_n,
            dim=f.dim,
            n_topics=f.n_topics,
            seed=f.seed,
            topic_spread=f.topic_spread,
            emb_noise=f.emb_noise,
        )
    return _MASTER_CACHE[family]


def load_dataset(name: str) -> EmbeddingCorpus:
    """Materialise a named corpus: a deterministic prefix of its family master."""
    spec = DATASETS[name]
    m = _master(spec.family)
    return EmbeddingCorpus(
        emb=m.emb[: spec.n], semantic=m.semantic[: spec.n], topic=m.topic[: spec.n]
    )


def dev_queries(corpus: EmbeddingCorpus, n_queries: int = 300, seed: int = 17) -> QuerySet:
    """MS MARCO Dev-style binary-relevance queries (MRR@10)."""
    return make_queries(corpus, n_queries, query_noise=0.8, seed=seed)


def trec_queries(corpus: EmbeddingCorpus, n_queries: int = 43, seed: int = 19) -> QuerySet:
    """TREC2019 DL-style graded queries (NDCG@10). 43 queries, as the paper."""
    return make_queries(corpus, n_queries, query_noise=0.8, graded=True, seed=seed)


def nq_queries(corpus: EmbeddingCorpus, n_queries: int = 200, seed: int = 29) -> QuerySet:
    """Natural Questions-style binary queries for the WIKI corpora (MRR@10)."""
    return make_queries(corpus, n_queries, query_noise=0.75, emb_noise=0.4, seed=seed)


def corpus_to_pandas(corpus: EmbeddingCorpus) -> pd.DataFrame:
    """Corpus as a pandas frame: id, and emb as one list of Python floats
    per row, which ``createDataFrame`` takes with Arrow on or off (an
    ndarray element it rejects without Arrow)."""
    return pd.DataFrame({"id": corpus.ids.astype(np.int64),
                         "emb": corpus.emb.astype(np.float32).tolist()})


def corpus_to_spark(spark: SparkSession, corpus: EmbeddingCorpus) -> DataFrame:
    """Corpus as a Spark DataFrame (id BIGINT, emb ARRAY<FLOAT>)."""
    return spark.createDataFrame(corpus_to_pandas(corpus), schema="id long, emb array<float>")
