"""Unit tests for repro.metrics (MRR@k, NDCG@k, recall@k, AQT harness)."""
import time

import numpy as np
import pytest

from repro.metrics import dcg_at_k, measure_aqt, mrr_at_k, ndcg_at_k, recall_at_k


class TestMRR:
    def test_perfect_rank_one(self):
        assert mrr_at_k([[7, 1, 2]], [{7}], 10) == 1.0

    def test_rank_two(self):
        assert mrr_at_k([[1, 7, 2]], [{7}], 10) == 0.5

    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 5, 7, 10])
    def test_reciprocal_rank_values(self, rank):
        ranked = [list(range(100, 100 + rank - 1)) + [7]]
        assert mrr_at_k(ranked, [{7}], 10) == pytest.approx(1.0 / rank)

    def test_miss_beyond_k_scores_zero(self):
        ranked = [list(range(10)) + [99]]
        assert mrr_at_k(ranked, [{99}], 10) == 0.0

    def test_mean_over_queries(self):
        ranked = [[7, 1], [1, 7]]
        assert mrr_at_k(ranked, [{7}, {7}], 10) == pytest.approx(0.75)

    def test_first_relevant_counts(self):
        assert mrr_at_k([[3, 7, 8]], [{7, 8}], 10) == 0.5

    def test_empty_result_list(self):
        assert mrr_at_k([[]], [{1}], 10) == 0.0

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            mrr_at_k([[1]], [{1}, {2}], 10)

    def test_no_queries(self):
        assert mrr_at_k([], [], 10) == 0.0


class TestDCG:
    def test_empty(self):
        assert dcg_at_k([], 10) == 0.0

    def test_single_grade(self):
        # (2^3 - 1) / log2(2) = 7
        assert dcg_at_k([3.0], 10) == pytest.approx(7.0)

    def test_discount_applied(self):
        # grade 3 at rank 2: 7 / log2(3)
        assert dcg_at_k([0.0, 3.0], 10) == pytest.approx(7.0 / np.log2(3))

    def test_truncation_at_k(self):
        assert dcg_at_k([1.0, 1.0, 1.0], 2) == dcg_at_k([1.0, 1.0], 2)


class TestNDCG:
    def test_ideal_ranking_is_one(self):
        qrels = [{1: 3.0, 2: 2.0, 3: 1.0}]
        assert ndcg_at_k([[1, 2, 3]], qrels, 10) == pytest.approx(1.0)

    def test_reversed_ranking_below_one(self):
        qrels = [{1: 3.0, 2: 2.0, 3: 1.0}]
        v = ndcg_at_k([[3, 2, 1]], qrels, 10)
        assert 0 < v < 1

    def test_irrelevant_results_zero(self):
        assert ndcg_at_k([[8, 9]], [{1: 3.0}], 10) == 0.0

    def test_queries_without_judgments_skipped(self):
        qrels = [{}, {1: 3.0}]
        assert ndcg_at_k([[5], [1]], qrels, 10) == pytest.approx(1.0)

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            ndcg_at_k([[1]], [], 10)

    def test_partial_credit_ordering(self):
        qrels = [{1: 3.0, 2: 1.0}]
        better = ndcg_at_k([[1, 2]], qrels, 10)
        worse = ndcg_at_k([[2, 1]], qrels, 10)
        assert better > worse


class TestRecall:
    def test_full_overlap(self):
        assert recall_at_k([[1, 2, 3]], [[3, 2, 1]], 3) == 1.0

    def test_half_overlap(self):
        assert recall_at_k([[1, 2, 8, 9]], [[1, 2, 3, 4]], 4) == 0.5

    def test_no_overlap(self):
        assert recall_at_k([[8, 9]], [[1, 2]], 2) == 0.0

    def test_k_truncates_both_sides(self):
        assert recall_at_k([[1, 9, 9, 9]], [[1, 2, 3, 4]], 1) == 1.0

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            recall_at_k([[1]], [], 3)


class TestAQT:
    def test_results_and_positive_time(self):
        queries = np.zeros((5, 4), dtype=np.float32)
        ranked, seconds = measure_aqt(lambda q: [1, 2], queries)
        assert len(ranked) == 5 and all(r == [1, 2] for r in ranked)
        assert seconds.shape == (5,) and (seconds >= 0.0).all()

    def test_per_query_average(self):
        calls = []
        queries = np.zeros((4, 2))
        measure_aqt(lambda q: calls.append(1) or [], queries)
        assert len(calls) == 4

    def test_median_beside_mean(self):
        """One slow query lifts the mean but not the per-query median."""
        queries = np.arange(5, dtype=np.float32)[:, None]
        _, seconds = measure_aqt(lambda q: time.sleep(0.03 * (q[0] == 2)) or [], queries)
        assert seconds[2] >= 0.03 and seconds.mean() >= 0.03 / 5
        assert np.median(seconds) < seconds.mean()
