"""End-to-end tests of the table drivers (tiny-scale runs of the code that
regenerates each paper table)."""
import numpy as np
import pytest

from repro.bench.harness import LiderIndex, METHODS, build_method, evaluate
from repro.bench.tables import format_rows, sweep_clustering, table2, table3, table4, table5
from repro.embeddings.datasets import dev_queries, load_dataset
from tests.test_lider import bad_corpus


class TestHarness:
    def test_all_nine_methods_registered(self):
        assert set(METHODS) == {
            "Flat", "PQ", "OPQ", "PCA-PQ", "IVFPQ", "IVFPQ-HNSW",
            "FALCONN", "SK-LSH", "LIDER",
        }

    @pytest.mark.parametrize("method", ["Flat", "LIDER", "FALCONN"])
    def test_build_and_evaluate(self, method):
        corpus = load_dataset("MSL-2k")
        qs = dev_queries(corpus, 20)
        idx, build_s = build_method(method, corpus.emb)
        quality, aqt = evaluate(idx, qs, k=50)
        assert 0.0 <= quality <= 1.0 and aqt > 0 and build_s > 0

    @pytest.mark.parametrize(
        "case, match",
        [("nan_row", "non-finite"), ("non_unit_row", "unit-norm"), ("duplicate_ids", "not unique")],
    )
    def test_build_rejects_bad_corpus(self, case, match):
        """Every method gets LIDER's corpus checks, a baseline included."""
        emb, ids = bad_corpus(case, load_dataset("MSL-2k").emb)
        with pytest.raises(ValueError, match=match):
            build_method("Flat", emb, ids)

    def test_evaluate_ndcg_requires_qrels(self):
        corpus = load_dataset("MSL-2k")
        qs = dev_queries(corpus, 5)
        idx, _ = build_method("Flat", corpus.emb)
        with pytest.raises(ValueError):
            evaluate(idx, qs, metric="ndcg")

    def test_unknown_metric_raises(self):
        corpus = load_dataset("MSL-2k")
        qs = dev_queries(corpus, 5)
        idx, _ = build_method("Flat", corpus.emb)
        with pytest.raises(ValueError):
            evaluate(idx, qs, metric="nope")

    def test_lider_adapter_matches_core(self):
        corpus = load_dataset("MSL-2k")
        adapter = LiderIndex().fit(corpus.emb)
        direct = adapter.lider.search(corpus.emb[0], 10)[0]
        assert np.array_equal(adapter.search(corpus.emb[0], 10), direct)


class TestTable2:
    @pytest.fixture(scope="class")
    def rows(self):
        return table2(
            ms_datasets=["MSL-2k"], wiki_dataset=None,
            methods=["Flat", "LIDER", "SK-LSH"], n_dev=25, n_trec=10, k=50,
        )

    def test_row_per_method(self, rows):
        assert len(rows) == 3

    def test_columns(self, rows):
        assert {"dataset", "method", "dev_mrr@10", "trec_ndcg@10", "aqt_ms"} <= set(rows[0])

    def test_flat_is_quality_upper_bound(self, rows):
        flat = next(r for r in rows if r["method"] == "Flat")
        for r in rows:
            assert r["dev_mrr@10"] <= flat["dev_mrr@10"] + 0.05

    def test_format_rows(self, rows):
        text = format_rows(rows)
        assert "LIDER" in text and "dev_mrr@10" in text

    def test_format_rows_empty(self):
        assert format_rows([]) == "(no rows)"


class TestTable3:
    def test_rows_and_trend(self):
        rows = table3(dataset="MSL-2k", h_values=(4, 16), n_queries=40, k=50)
        assert [r["H"] for r in rows] == [4, 16]
        # more arrays → better or equal quality (the Table-3 trend)
        assert rows[1]["mrr@10"] >= rows[0]["mrr@10"] - 0.02
        assert all(r["avg_expansion_s"] > 0 for r in rows)


class TestTable4:
    @pytest.fixture(scope="class")
    def rows(self):
        return table4(dataset="MSL-2k", n_queries=100, pad=16, h=4)

    def test_two_arms(self, rows):
        assert [r["key_rescaling"] for r in rows] == ["No", "Yes"]

    def test_rescaling_eliminates_oor(self, rows):
        no, yes = rows
        assert no["n_oor"] > 0.5 * no["n_total"]  # most predictions OOR
        assert yes["n_oor"] < 0.05 * yes["n_total"]

    def test_rescaling_reduces_large_errors(self, rows):
        no, yes = rows
        assert yes["n_le"] < no["n_le"]

    def test_overlap_shows_oor_causes_le(self, rows):
        no, _ = rows
        assert no["n_overlap"] > 0.8 * min(no["n_oor"], no["n_le"])


class TestTable5:
    def test_rows_structure(self):
        rows = table5(datasets=["MSL-2k"], sklsh_h={"MSL-2k": 8})
        systems = [r["system"] for r in rows]
        assert systems == [
            "LIDER Stage 1 - Clustering",
            "LIDER Stage 2 - Building CR",
            "LIDER Stage 3 - Building all IRs",
            "SK-LSH (H=8)",
        ]
        assert all(r["time_s"] >= 0 and r["memory_mb"] > 0 for r in rows)

    def test_irs_dominate_lider_memory(self):
        rows = table5(datasets=["MSL-2k"], sklsh_h={"MSL-2k": 8})
        s2 = next(r for r in rows if "Stage 2" in r["system"])
        s3 = next(r for r in rows if "Stage 3" in r["system"])
        assert s3["memory_mb"] > 2 * s2["memory_mb"]


class TestSweep:
    def test_c0_sweep_rows(self):
        rows = sweep_clustering(
            dataset="MSL-2k", c0_values=(1, 4), fixed_c=6, n_queries=20, k=50
        )
        assert len(rows) == 2
        # more probed clusters → slower but not worse quality
        assert rows[1]["aqt_ms"] >= rows[0]["aqt_ms"] * 0.8
        assert rows[1]["mrr@10"] >= rows[0]["mrr@10"] - 0.02

    def test_c_sweep_rows(self):
        rows = sweep_clustering(
            dataset="MSL-2k", c_values=(4, 10), fixed_c0=2, n_queries=15, k=50
        )
        assert [r["c"] for r in rows] == [4, 10]
