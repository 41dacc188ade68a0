"""Tests for the two-layer LIDER index (§3.2/§3.3.2)."""
import numpy as np
import pytest

from repro.core.lider import LIDER, LIDERConfig
from repro.metrics import mrr_at_k, recall_at_k


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
        assert rep.stage1_seconds >= 0 and rep.stage2_seconds > 0 and rep.stage3_seconds > 0
        assert rep.stage1_bytes < rep.stage2_bytes < rep.stage3_bytes

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
            + lider_small.centroid_retriever.nbytes
            + sum(cm.nbytes - cm.planes_nbytes for cm in irs)
            + max(cm.planes_nbytes for cm in irs)
        )
        assert total == parts

    def test_in_cluster_planes_physically_shared(self, lider_small):
        # All IRs slice the same cached hyperplane matrices (numpy views).
        irs = list(lider_small.in_cluster.values())
        base0 = irs[0].esklsh.hashers[0].planes.base
        assert base0 is not None
        for cm in irs[1:]:
            assert cm.esklsh.hashers[0].planes.base is base0

    def test_in_cluster_retrievers_dominate(self, lider_small):
        """Table-5 observation: the IRs take the major fraction of the index."""
        ir_bytes = sum(cm.nbytes for cm in lider_small.in_cluster.values())
        assert ir_bytes > 0.5 * lider_small.memory_footprint()
