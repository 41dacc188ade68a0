"""Tests for the original SK-LSH baseline (global iterative expansion)."""
import numpy as np
import pytest

from repro.baselines.sklsh import SKLSHIndex
from repro.lsh.hashkeys import dist_original
from repro.metrics import recall_at_k


@pytest.fixture(scope="module")
def fitted(corpus_small):
    return SKLSHIndex(h=8, r0=4).fit(corpus_small.emb)


class TestBuild:
    def test_array_count_and_sorting(self, fitted):
        assert len(fitted.esklsh.arrays) == 8
        for arr in fitted.esklsh.arrays:
            assert (np.diff(arr.keys.astype(np.int64)) >= 0).all()

    def test_default_bits_log2_n(self, fitted, corpus_small):
        assert fitted._m_bits == int(np.ceil(np.log2(corpus_small.n)))

    def test_arrays_cover_corpus(self, fitted, corpus_small):
        for arr in fitted.esklsh.arrays:
            assert np.array_equal(np.sort(arr.rows), np.arange(corpus_small.n))


class TestExpansion:
    def test_candidate_budget_respected(self, fitted, queries_small):
        cand = fitted._candidates(queries_small.emb[0], budget=200)
        assert 1 <= cand.size <= 200

    def test_candidates_are_valid_rows(self, fitted, corpus_small, queries_small):
        cand = fitted._candidates(queries_small.emb[1], budget=100)
        assert cand.min() >= 0 and cand.max() < corpus_small.n

    def test_consumed_in_global_distance_order(self, fitted, queries_small):
        """The defining SK-LSH property: candidates come out in
        non-decreasing ORIGINAL hashkey distance to the query."""
        q = queries_small.emb[2]
        m = fitted._m_bits
        # Re-run the expansion but record the pop order distances.
        import heapq

        heap, dists = [], []
        esk = fitted.esklsh
        for a_idx, (qkey, arr) in enumerate(zip(esk.query_keys(q), esk.arrays)):
            entry = int(np.searchsorted(arr.keys, qkey))
            budget = 150
            lo, hi = max(0, entry - budget), min(len(arr), entry + budget)
            wd = dist_original(arr.keys[lo:hi], np.full(hi - lo, qkey, np.uint64), m)
            dists.append((lo, wd))
            if entry < len(arr):
                heap.append((float(wd[entry - lo]), a_idx, entry, +1))
            if entry - 1 >= 0:
                heap.append((float(wd[entry - 1 - lo]), a_idx, entry - 1, -1))
        heapq.heapify(heap)
        popped = []
        while heap and len(popped) < 150:
            d, a_idx, pos, step = heapq.heappop(heap)
            popped.append(d)
            nxt = pos + step
            lo, wd = dists[a_idx]
            if lo <= nxt < lo + wd.shape[0]:
                heapq.heappush(heap, (float(wd[nxt - lo]), a_idx, nxt, step))
        assert (np.diff(popped) >= 0).all()

    def test_exhaustion_small_corpus(self):
        emb = np.random.default_rng(0).standard_normal((20, 8)).astype(np.float32)
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        idx = SKLSHIndex(h=2, r0=4).fit(emb)
        out = idx.search(emb[0], 100)
        assert out.size <= 20


class TestSearch:
    def test_contract(self, fitted, queries_small):
        out = fitted.search(queries_small.emb[0], 30)
        assert len(set(out.tolist())) == len(out) == 30

    def test_self_found(self, fitted, corpus_small):
        hits = sum(
            i in fitted.search(corpus_small.emb[i], 10) for i in range(0, 100, 10)
        )
        assert hits >= 9

    def test_recall_good_at_small_scale(self, fitted, queries_small, truth_small):
        # Table 2: SK-LSH is strong on small corpora (its budget covers a
        # large fraction of the dataset) and degrades at scale.
        ranked = [fitted.search(q, 100) for q in queries_small.emb[:20]]
        assert recall_at_k(ranked, truth_small[:20], 100) > 0.5

    def test_custom_ids(self, corpus_small, queries_small):
        ids = np.arange(corpus_small.n) + 100
        idx = SKLSHIndex(h=4, r0=2).fit(corpus_small.emb, ids)
        assert (idx.search(queries_small.emb[0], 10) >= 100).all()

    def test_nbytes_scales_with_h(self, corpus_small):
        a = SKLSHIndex(h=4).fit(corpus_small.emb)
        b = SKLSHIndex(h=8).fit(corpus_small.emb)
        assert b.nbytes > 1.8 * a.nbytes
