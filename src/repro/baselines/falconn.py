"""FALCONN-style multi-probe hyperplane LSH (paper §7.1.2 (7)).

FALCONN implements multi-probe LSH (Lv et al. 2007) for angular distance.
Here: H hash tables keyed by M-bit hyperplane hashkeys; a query probes its
own bucket plus buckets reached by flipping its least-confident bits (the
ones with smallest |projection|), gathers the union of members, and ranks
them by exact inner product.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.base import ANNIndex
from repro.lsh.hashkeys import pack_bits
from repro.lsh.projections import hyperplanes


class MultiProbeLSHIndex(ANNIndex):
    """H hash tables + least-confident-bit probing."""

    name = "FALCONN"

    def __init__(self, h: int = 24, m: int | None = None, n_probes: int = 8, seed: int = 1234):
        super().__init__()
        self.h = h
        self.m = m  # None → ceil(log2 N), the paper's setting
        self.n_probes = max(1, n_probes)
        self.seed = seed
        self.tables: list[dict[int, np.ndarray]] = []
        self.planes: np.ndarray | None = None  # (H, M, d)
        self.emb: np.ndarray | None = None

    def fit(self, emb: np.ndarray, ids: np.ndarray | None = None) -> "MultiProbeLSHIndex":
        emb = np.ascontiguousarray(emb, dtype=np.float32)
        n = emb.shape[0]
        self._set_ids(n, ids)
        self.emb = emb
        m = self.m if self.m is not None else max(4, int(np.ceil(np.log2(max(n, 2)))))
        self._m_bits = m
        self.planes = hyperplanes(emb.shape[1], m, self.h, base_seed=self.seed, group=10_000)
        self.tables = []
        for planes in self.planes:
            keys = pack_bits((emb @ planes.T) > 0)
            order = np.argsort(keys, kind="stable")
            sorted_keys = keys[order]
            # Bucket boundaries from the sorted key array.
            uniq, starts = np.unique(sorted_keys, return_index=True)
            ends = np.append(starts[1:], n)
            table = {
                int(kv): order[s:e].astype(np.int64)
                for kv, s, e in zip(uniq, starts, ends)
            }
            self.tables.append(table)
        return self

    def _probe_keys(self, base_key: int, projections: np.ndarray) -> list[int]:
        """The probing sequence: base bucket, then flip the least-confident
        single bits in increasing |projection| order."""
        m = self._m_bits
        order = np.argsort(np.abs(projections))  # least confident first
        probes = [int(base_key)]
        for bit_pos in order[: self.n_probes - 1]:
            flip = 1 << (m - 1 - int(bit_pos))  # MSB-first packing
            probes.append(int(base_key) ^ flip)
        return probes

    def search(self, q: np.ndarray, k: int) -> np.ndarray:
        q = np.asarray(q, dtype=np.float32)
        rows = []
        projections = self.planes @ q  # (H, M)
        base_keys = pack_bits(projections > 0)
        for proj, base_key, table in zip(projections, base_keys, self.tables):
            for key in self._probe_keys(base_key, proj):
                bucket = table.get(key)
                if bucket is not None:
                    rows.append(bucket)
        if not rows:
            return np.empty(0, dtype=np.int64)
        cand = np.unique(np.concatenate(rows))
        scores = self.emb[cand] @ q
        return self._top_ids(scores, self.ids[cand], k)

    @property
    def nbytes(self) -> int:
        bucket_bytes = sum(
            sum(v.nbytes for v in table.values()) for table in self.tables
        )
        return bucket_bytes + self.planes.nbytes
