"""Tests for the two-layer LIDER index (§3.2/§3.3.2)."""
import numpy as np
import pytest

from repro.core.lider import LIDER, LIDERConfig
from repro.embeddings.corpus import make_corpus
from repro.metrics import mrr_at_k, recall_at_k


def bad_corpus(case: str, emb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A copy of (emb, row-position ids) with one defect ``check_corpus``
    must reject."""
    emb, ids = emb.copy(), np.arange(emb.shape[0], dtype=np.int64)
    if case == "nan_row":
        emb[7, 3] = np.nan
    elif case == "inf_row":
        emb[7, 3] = -np.inf
    elif case == "duplicate_ids":
        ids[9] = ids[4]
    elif case == "ids_one_short":
        ids = ids[:-1]
    elif case == "ids_one_long":
        ids = np.arange(emb.shape[0] + 1, dtype=np.int64)
    return emb, ids


class TestConfigResolve:
    def test_defaults_target_cluster_size(self):
        c, c0 = LIDERConfig().resolve(100_000)
        assert c == 200 and c0 == 8

    def test_explicit_values_win(self):
        c, c0 = LIDERConfig(c=50, c0=5).resolve(100_000)
        assert (c, c0) == (50, 5)

    def test_c0_capped_by_c(self):
        c, c0 = LIDERConfig(c=4, c0=100).resolve(1000)
        assert c0 <= c

    def test_small_n(self):
        c, c0 = LIDERConfig().resolve(50)
        assert 1 <= c0 <= c <= 50


class TestBuild:
    def test_stages_populated(self, lider_small):
        rep = lider_small.report
        assert rep.stage1_seconds >= 0 and rep.stage3_seconds > 0
        assert 0 < rep.stage1_bytes < rep.stage3_bytes

    def test_centroid_count(self, lider_small):
        assert lider_small.centroids.shape[0] == 8

    def test_every_nonempty_cluster_has_retriever(self, lider_small):
        present = set(np.unique(lider_small.assignments))
        assert set(lider_small.in_cluster) == {int(j) for j in present}

    def test_in_cluster_sizes_match_assignments(self, lider_small):
        for j, cm in lider_small.in_cluster.items():
            assert cm.n == int((lider_small.assignments == j).sum())

    def test_ids_partition_corpus(self, lider_small, corpus_small):
        all_ids = np.concatenate([cm.ids for cm in lider_small.in_cluster.values()])
        assert np.array_equal(np.sort(all_ids), np.arange(corpus_small.n))

    def test_injected_clustering_skips_stage1(self, corpus_small, clustered_small):
        cents, assign = clustered_small
        idx = LIDER(LIDERConfig(c=8, c0=4)).fit(
            corpus_small.emb, assignments=assign, centroids=cents
        )
        assert np.array_equal(idx.assignments, assign)
        assert np.array_equal(idx.centroids, cents)

    @pytest.mark.parametrize(
        "case, match",
        [
            ("nan_row", "non-finite"),
            ("inf_row", "non-finite"),
            ("duplicate_ids", "not unique"),
            ("ids_one_short", "align"),
            ("ids_one_long", "align"),
        ],
    )
    def test_bad_corpus_raises(self, corpus_small, case, match):
        emb, ids = bad_corpus(case, corpus_small.emb)
        with pytest.raises(ValueError, match=match):
            LIDER(LIDERConfig(c=8, c0=4)).fit(emb, ids)

    def test_search_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            LIDER().search(np.zeros(8, dtype=np.float32), 5)


class TestSearch:
    def test_topk_sorted_scores(self, lider_small, queries_small):
        ids, scores = lider_small.search(queries_small.emb[0], 20)
        assert len(ids) == 20 and (np.diff(scores) <= 1e-6).all()

    def test_scores_exact_cosines(self, lider_small, corpus_small, queries_small):
        q = queries_small.emb[2]
        ids, scores = lider_small.search(q, 10)
        assert scores == pytest.approx(corpus_small.emb[ids] @ q, abs=1e-6)

    def test_no_duplicate_ids(self, lider_small, queries_small):
        ids, _ = lider_small.search(queries_small.emb[1], 50)
        assert len(set(ids.tolist())) == len(ids)

    def test_indexed_point_finds_itself(self, lider_small, corpus_small):
        for row in (3, 500, 1500):
            ids, _ = lider_small.search(corpus_small.emb[row], 10)
            assert row in ids[:3]

    def test_recall_vs_flat(self, lider_small, queries_small, truth_small):
        ranked = [lider_small.search(q, 100)[0] for q in queries_small.emb]
        assert recall_at_k(ranked, truth_small, 100) > 0.5

    def test_quality_close_to_flat(self, lider_small, queries_small, truth_small):
        ranked = [list(map(int, lider_small.search(q, 100)[0])) for q in queries_small.emb]
        flat_mrr = mrr_at_k([list(map(int, t)) for t in truth_small], queries_small.relevant, 10)
        lider_mrr = mrr_at_k(ranked, queries_small.relevant, 10)
        assert lider_mrr >= 0.7 * flat_mrr

    def test_more_c0_not_worse(self, corpus_small, clustered_small, queries_small, truth_small):
        """The Fig.-7 trend: probing more clusters improves recall."""
        cents, assign = clustered_small
        lo = LIDER(LIDERConfig(c=8, c0=1)).fit(corpus_small.emb, assignments=assign, centroids=cents)
        hi = LIDER(LIDERConfig(c=8, c0=8)).fit(corpus_small.emb, assignments=assign, centroids=cents)
        r_lo = recall_at_k([lo.search(q, 100)[0] for q in queries_small.emb], truth_small, 100)
        r_hi = recall_at_k([hi.search(q, 100)[0] for q in queries_small.emb], truth_small, 100)
        assert r_hi >= r_lo

    def test_wrong_dimension_query_raises(self, lider_small, queries_small):
        q = queries_small.emb[0]
        for bad in (q[:-1], np.append(q, 0.0), queries_small.emb[:2]):
            with pytest.raises(ValueError, match="shape"):
                lider_small.search(bad, 10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_query_raises(self, lider_small, queries_small, bad):
        q = queries_small.emb[0].copy()
        q[5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            lider_small.search(q, 10)

    def test_k_above_corpus_size_returns_every_candidate(self):
        corpus = make_corpus(50, dim=16, seed=1)
        idx = LIDER(LIDERConfig(c=4, c0=4)).fit(corpus.emb)
        ids, scores = idx.search(corpus.emb[0], 100)
        # Every cluster is probed and windows of r0·k rows cover each one,
        # so all 50 rows are candidates: min(k, candidates) = 50 ids.
        assert sorted(ids.tolist()) == list(range(50))
        assert (np.diff(scores) <= 0).all()

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_raises(self, lider_small, queries_small, k):
        with pytest.raises(ValueError, match="k must be"):
            lider_small.search(queries_small.emb[0], k)

    def test_custom_ids_propagate(self, corpus_small, clustered_small):
        cents, assign = clustered_small
        ids = np.arange(corpus_small.n) + 10_000
        idx = LIDER(LIDERConfig(c=8, c0=4)).fit(
            corpus_small.emb, ids, assignments=assign, centroids=cents
        )
        got, _ = idx.search(corpus_small.emb[7], 5)
        assert got[0] == 10_007


class TestMemory:
    def test_footprint_is_sum_of_parts(self, lider_small):
        total = lider_small.memory_footprint()
        irs = list(lider_small.in_cluster.values())
        parts = (
            lider_small.report.stage1_bytes
            + sum(cm.nbytes - cm.esklsh.planes.nbytes for cm in irs)
            + lider_small.planes.nbytes
        )
        assert total == parts

    def test_in_cluster_planes_physically_shared(self, lider_small):
        # Every IR hashes with a view of the index's one plane tensor, drawn
        # by this build (a cold one when the test runs alone).
        for cm in lider_small.in_cluster.values():
            assert np.shares_memory(cm.esklsh.planes, lider_small.planes)

    def test_in_cluster_retrievers_dominate(self, lider_small):
        """Table-5 observation: the IRs take the major fraction of the index."""
        ir_bytes = sum(cm.nbytes for cm in lider_small.in_cluster.values())
        assert ir_bytes > 0.5 * lider_small.memory_footprint()
