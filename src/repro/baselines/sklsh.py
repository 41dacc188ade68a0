"""Original SK-LSH (Liu et al. 2014) — the paper's baseline (8), implemented
from scratch (the paper notes no open-source implementation exists).

The H sorted hashkey arrays are built by ESK-LSH's own ``ESKLSH.fit``.
Differences from LIDER's ESK-LSH, preserved deliberately:
  * entry point found by *binary search* on each sorted array (no RMI);
  * expansion is the *iterative global* bi-directional scheme: at each step
    the single globally closest frontier hashkey (by the ORIGINAL distance
    dist = KL + KD/C of Eq. 4, whose KD ≡ 1 on binary keys — the "low
    resolution problem") across all 2H frontiers is consumed — a serial
    merge that cannot be vectorised per array, which is exactly why the
    paper's §4.3 parallel per-array expansion is faster;
  * H defaults to 24 arrays with M = ceil(log2 N) (paper §7.1.2 (8)).

Frontier distances are precomputed per array in one vectorised pass (an
implementation kindness that only *reduces* its AQT); the global merge
itself stays a faithful serial heap loop.
"""
from __future__ import annotations

import heapq

import numpy as np

from repro.baselines.base import ANNIndex
from repro.core.core_model import top_k
from repro.lsh.esklsh import ESKLSH
from repro.lsh.hashkeys import dist_original, hashkey_bits
from repro.lsh.projections import hyperplanes


class SKLSHIndex(ANNIndex):
    """SK-LSH: H sorted hashkey arrays + global iterative expansion."""

    name = "SK-LSH"

    def __init__(self, h: int = 24, m: int | None = None, r0: int = 4, seed: int = 1234):
        super().__init__()
        self.h = h
        self.m = m
        self.r0 = r0
        self.seed = seed
        self.esklsh: ESKLSH | None = None
        self.emb: np.ndarray | None = None

    def fit(self, emb: np.ndarray, ids: np.ndarray | None = None) -> "SKLSHIndex":
        emb = np.ascontiguousarray(emb, dtype=np.float32)
        n = emb.shape[0]
        self._set_ids(n, ids)
        self.emb = emb
        self._m_bits = self.m if self.m is not None else hashkey_bits(n)
        self.esklsh = ESKLSH(
            hyperplanes(emb.shape[1], self._m_bits, self.h, base_seed=self.seed, group=20_000)
        ).fit(emb)
        return self

    def _candidates(self, q: np.ndarray, budget: int) -> np.ndarray:
        """The iterative global bi-directional expansion of SK-LSH §4.

        2H frontiers (left/right of each array's binary-search entry); each
        step consumes the frontier with globally minimal dist(K, K_q) and
        advances it. Stops after ``budget`` candidates or exhaustion.
        """
        m = self._m_bits
        arrays = self.esklsh.arrays
        heap = []
        dists = []  # per-array precomputed frontier distances
        for a_idx, (qkey, arr) in enumerate(zip(self.esklsh.query_keys(q), arrays)):
            entry = int(np.searchsorted(arr.keys, arr.keys.dtype.type(qkey)))
            lo = max(0, entry - budget)
            hi = min(len(arr), entry + budget)
            window_d = dist_original(
                arr.keys[lo:hi], np.full(hi - lo, qkey, dtype=np.uint64), m
            )
            dists.append((lo, window_d))
            # Right frontier starts at the entry, left frontier just before it.
            if entry < len(arr):
                heap.append((float(window_d[entry - lo]), a_idx, entry, +1))
            if entry - 1 >= 0:
                heap.append((float(window_d[entry - 1 - lo]), a_idx, entry - 1, -1))
        heapq.heapify(heap)
        out = []
        while heap and len(out) < budget:
            _, a_idx, pos, step = heapq.heappop(heap)
            out.append(arrays[a_idx].rows[pos])
            nxt = pos + step
            lo, window_d = dists[a_idx]
            if lo <= nxt < lo + window_d.shape[0] and 0 <= nxt < len(arrays[a_idx]):
                heapq.heappush(heap, (float(window_d[nxt - lo]), a_idx, nxt, step))
        return np.unique(np.array(out, dtype=np.int64)) if out else np.empty(0, np.int64)

    def search(self, q: np.ndarray, k: int) -> np.ndarray:
        q = np.asarray(q, dtype=np.float32)
        budget = max(1, self.r0 * k * self.h)  # same total budget as ESK-LSH's H windows
        cand = self._candidates(q, budget)
        if cand.size == 0:
            return np.empty(0, dtype=np.int64)
        scores = self.emb[cand] @ q
        return self.ids[cand[top_k(scores, k)]]

    @property
    def nbytes(self) -> int:
        return self.esklsh.nbytes
