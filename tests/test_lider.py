"""Tests for the two-layer LIDER index (§3.2/§3.3.2)."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.core_model import CoreModel, top_k
from repro.core.lider import IN_CLUSTER_GROUP, LIDER, LIDERConfig, check_corpus, check_query
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
    elif case == "non_unit_row":
        emb[7] *= 1.01
    return emb, ids


def merged_cluster_searches(lider: LIDER, q: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The top-k merge of ``CoreModel.search`` over the clusters ``lider``
    probes for ``q``: the per-cluster public calls LIDER.search fuses."""
    _, c0 = lider.config.resolve(lider.assignments.shape[0])
    clusters, _ = lider.centroid_retriever.search(q, km=c0)
    parts = [lider.in_cluster[int(j)].search(q, k) for j in clusters if int(j) in lider.in_cluster]
    parts = parts or [(np.empty(0, np.int64), np.empty(0, np.float32))]
    ids = np.concatenate([p[0] for p in parts])
    scores = np.concatenate([p[1] for p in parts])
    top = top_k(scores, k)
    return ids[top], scores[top]


def assert_layout_views(lider: LIDER) -> None:
    """Every in-cluster retriever's arrays are views of their slice of the
    index's one cluster-contiguous layout."""
    h = lider.config.h
    for j, cm in lider.in_cluster.items():
        part = slice(lider.offsets[j], lider.offsets[j] + lider.sizes[j])
        block = lider.rows[h * part.start:h * part.stop]
        pairs = [
            (cm.emb, lider.emb[part]),
            (cm.ids, lider.ids[part]),
            (cm.esklsh.rows, block.reshape(h, -1)),
            (cm.roots, lider.roots[j]),
            (cm.children, lider.children[j]),
            (cm.esklsh.planes, lider.planes[:, :cm.esklsh.m]),
        ]
        pairs += [(arr.rows, block.reshape(h, -1)[i]) for i, arr in enumerate(cm.esklsh.arrays)]
        for view, expected in pairs:
            assert np.shares_memory(view, expected)
            assert np.array_equal(view, expected)


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

    @pytest.mark.parametrize("value", [0, -3])
    @pytest.mark.parametrize("name", ["c", "c0", "r0", "h", "w_incluster", "target_cluster_size"])
    def test_below_one_raises(self, name, value):
        """A count below 1 is rejected, not clamped (c) or turned into an
        empty probe (c0=0), a negative top-k (c0<0) or width-1 windows (r0)."""
        with pytest.raises(ValueError, match=f"LIDERConfig.{name} must be at least 1"):
            LIDERConfig(**{name: value})


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
            ("non_unit_row", "unit-norm"),
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

    def test_non_unit_query_raises(self, lider_small, queries_small):
        # Scaled ×100 a query would score "cosines" of about 100.
        with pytest.raises(ValueError, match="norm"):
            lider_small.search(queries_small.emb[0] * 100, 10)

    @pytest.mark.parametrize("k", [20, 100])
    def test_search_equals_merged_cluster_searches(self, lider_small, queries_small, k):
        """The fused pass returns what the per-cluster ``CoreModel.search``
        calls return, merged. At k=100 the r0·k windows are clipped to the
        ~250-row clusters, so window widths differ across probed clusters."""
        r = lider_small.config.r0 * k
        _, c0 = lider_small.config.resolve(lider_small.assignments.shape[0])
        mixed_widths = 0
        for q in queries_small.emb:
            ids, scores = lider_small.search(q, k)
            want_ids, want_scores = merged_cluster_searches(lider_small, q, k)
            assert np.array_equal(ids, want_ids)
            assert np.array_equal(scores, want_scores)
            probed, _ = lider_small.centroid_retriever.search(q, km=c0)
            mixed_widths += np.unique(np.minimum(r, lider_small.sizes[probed])).size > 1
        assert (mixed_widths > 0) == (k == 100)

    def test_empty_probed_cluster_skipped(self, corpus_small, clustered_small, queries_small):
        cents, assign = clustered_small
        assign = np.where(assign == 3, 2, assign).astype(np.int32)
        idx = LIDER(LIDERConfig(c=8, c0=4)).fit(
            corpus_small.emb, assignments=assign, centroids=cents
        )
        assert 3 not in idx.in_cluster and idx.sizes[3] == 0
        probed_empty = 0
        for q in queries_small.emb:
            probed_empty += 3 in idx.centroid_retriever.search(q, km=4)[0]
            ids, scores = idx.search(q, 20)
            want_ids, want_scores = merged_cluster_searches(idx, q, 20)
            assert ids.size == 20
            assert np.array_equal(ids, want_ids)
            assert np.array_equal(scores, want_scores)
        assert probed_empty > 0

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
        """Stage 1's arrays plus the layout's: no sorted keys are held, and
        reading a view's keys adds nothing to the index."""
        layout = ("ids", "rows", "roots", "children", "planes")
        parts = lider_small.report.stage1_bytes + sum(
            getattr(lider_small, name).nbytes for name in layout
        )
        assert lider_small.memory_footprint() == parts
        views = list(lider_small.in_cluster.values())
        assert all(cm.esklsh._keys is None for cm in views)
        assert all(cm.esklsh.keys is not None for cm in views)
        assert lider_small.memory_footprint() == parts

    def test_in_cluster_planes_physically_shared(self, lider_small):
        # Every IR hashes with a view of the index's one plane tensor, drawn
        # by this build (a cold one when the test runs alone).
        for cm in lider_small.in_cluster.values():
            assert np.shares_memory(cm.esklsh.planes, lider_small.planes)

    def test_in_cluster_arrays_are_layout_views(self, lider_small, corpus_small):
        order = np.argsort(lider_small.assignments, kind="stable")
        assert np.array_equal(lider_small.emb, corpus_small.emb[order])
        assert np.array_equal(lider_small.ids, order)
        assert lider_small.rows.shape == (lider_small.config.h * corpus_small.n,)
        assert_layout_views(lider_small)

    def test_in_cluster_retrievers_dominate(self, lider_small):
        """Table-5 observation: the IRs (Stage 3's layout) take the major
        fraction of the index."""
        ir_bytes = lider_small.memory_footprint() - lider_small.report.stage1_bytes
        assert ir_bytes > 0.5 * lider_small.memory_footprint()


def unit_rows(seed: int, n: int, d: int) -> np.ndarray:
    x = np.random.default_rng(seed).standard_normal((n, d))
    return (x / np.linalg.norm(x, axis=1, keepdims=True)).astype(np.float32)


class TestViewProperties:
    @given(
        n=st.integers(20, 400), c=st.integers(1, 8), c0=st.integers(1, 8),
        k=st.integers(1, 420), seed=st.integers(0, 2**16),
    )
    @settings(max_examples=50, deadline=None)
    def test_views_equal_fused_search_and_standalone_fit(self, n, c, c0, k, seed):
        """On random corpora with permuted ids: LIDER.search is the merge of
        the views' searches (k may exceed a cluster, or the corpus), and each
        view's derived keys and its rows are a standalone core model's."""
        corpus = make_corpus(n, dim=16, seed=seed)
        ids = np.random.default_rng(seed).permutation(n).astype(np.int64) * 7 + 3
        cfg = LIDERConfig(c=c, c0=c0)
        lider = LIDER(cfg).fit(corpus.emb, ids)
        for q in (*unit_rows(seed, 3, 16), corpus.emb[seed % n]):
            got_ids, got_scores = lider.search(q, k)
            want_ids, want_scores = merged_cluster_searches(lider, q, k)
            assert np.array_equal(got_ids, want_ids)
            assert np.array_equal(got_scores, want_scores)
        for j, view in lider.in_cluster.items():
            emb_j = corpus.emb[lider.assignments == j]
            ref = CoreModel(cfg.core_config(IN_CLUSTER_GROUP)).fit(emb_j, planes=lider.planes)
            assert np.array_equal(view.esklsh.keys, ref.esklsh.keys)
            assert view.esklsh.keys.dtype == ref.esklsh.keys.dtype
            assert np.array_equal(view.esklsh.rows, ref.esklsh.rows)


OFF_NORM = st.one_of(st.floats(0.0, 0.99), st.floats(1.01, 100.0))


class TestInputCheckProperties:
    @given(data=st.data(), n=st.integers(2, 30), d=st.integers(2, 12), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_check_corpus(self, data, n, d, seed):
        """One generated defect is rejected; the input without it passes."""
        emb = unit_rows(seed, n, d)
        ids = np.random.default_rng(seed).permutation(n).astype(np.int64)
        bad_emb, bad_ids = emb.copy(), ids.copy()
        row, col = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, d - 1))
        defect = data.draw(st.sampled_from(["nan", "inf", "off_norm", "ids_shape", "duplicate"]))
        if defect == "nan":
            bad_emb[row, col] = np.nan
        elif defect == "inf":
            bad_emb[row, col] = data.draw(st.sampled_from([np.inf, -np.inf]))
        elif defect == "off_norm":
            bad_emb[row] *= data.draw(OFF_NORM)
        elif defect == "ids_shape":
            bad_ids = data.draw(st.sampled_from([ids[:-1], np.append(ids, n), ids[None]]))
        else:
            bad_ids[row] = ids[data.draw(st.integers(0, n - 1).filter(lambda i: i != row))]
        with pytest.raises(ValueError):
            check_corpus(bad_emb, bad_ids)
        got_emb, got_ids = check_corpus(emb, ids)
        assert np.array_equal(got_emb, emb) and np.array_equal(got_ids, ids)

    @given(data=st.data(), d=st.integers(2, 12), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_check_query(self, data, d, seed):
        q = unit_rows(seed, 1, d)[0]
        bad = q.copy()
        col = data.draw(st.integers(0, d - 1))
        defect = data.draw(st.sampled_from(["nan", "inf", "off_norm", "shape"]))
        if defect == "nan":
            bad[col] = np.nan
        elif defect == "inf":
            bad[col] = data.draw(st.sampled_from([np.inf, -np.inf]))
        elif defect == "off_norm":
            bad *= data.draw(OFF_NORM)
        else:
            bad = data.draw(st.sampled_from([q[:-1], np.append(q, 0.0), q[None], np.stack([q, q])]))
        with pytest.raises(ValueError):
            check_query(bad, d)
        assert np.array_equal(check_query(q, d), q)
