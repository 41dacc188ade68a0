"""Tests for the core model (§3.1/§3.3.1): build, prediction, search."""
import numpy as np
import pytest

from repro.core.core_model import CoreModel, CoreModelConfig
from repro.metrics import recall_at_k
from repro.rmi.rescale import KeyRescaler
from repro.rmi.rmi import SimplifiedRMI

PARAMS = ("root_a", "root_x", "root_b", "child_a", "child_x", "child_b")


def reference_locations(cm: CoreModel, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-array reference for ``predict_locations``: refit each sorted
    array's re-scaler and RMI on their own and predict through them, with
    no folding or stacking. Returns (Q, H) query keys and locations."""
    keys = np.stack([cm.esklsh.query_keys(q) for q in queries])
    locs = np.empty(keys.shape, dtype=np.int64)
    for i, arr in enumerate(cm.esklsh.arrays):
        rescaler = KeyRescaler(len(arr), enabled=cm.config.rescale)
        rmi = SimplifiedRMI(cm.config.width, len(arr)).fit(
            rescaler.fit_transform(arr.keys), np.arange(len(arr), dtype=np.float64)
        )
        locs[:, i] = rmi.predict_location(rescaler.transform(keys[:, i]))
    return keys, locs


def assert_matches_reference(cm: CoreModel, queries: np.ndarray) -> None:
    ref_keys, ref_locs = reference_locations(cm, queries)
    for q, k2, l2 in zip(queries, ref_keys, ref_locs):
        k1, l1 = cm.predict_locations(q)
        assert np.array_equal(k1, k2)
        assert np.array_equal(l1, l2)


class TestConfig:
    def test_hashkey_bits_grows_with_n(self):
        cfg = CoreModelConfig(pad=4)
        assert cfg.hashkey_bits(1000) == 14
        assert cfg.hashkey_bits(10**6) == 24

    def test_hashkey_bits_capped_at_50(self):
        assert CoreModelConfig(pad=40).hashkey_bits(10**6) == 50

    def test_hashkey_bits_floor(self):
        assert CoreModelConfig(pad=0).hashkey_bits(2) >= 4


class TestBuild:
    def test_unit_count_matches_h(self, core_model_small):
        cm = core_model_small
        assert len(cm.esklsh.arrays) == 8
        assert cm.root_a.shape == (8,)
        assert cm.child_a.shape == (8, cm.config.width)

    def test_arrays_cover_corpus(self, core_model_small, corpus_small):
        for arr in core_model_small.esklsh.arrays:
            assert len(arr) == corpus_small.n

    def test_rmi_trained_per_array(self, core_model_small, corpus_small):
        """Every array's root is fitted: ascending keys → ascending
        locations, centred on the mean location."""
        cm = core_model_small
        assert (cm.root_a > 0).all()
        assert cm.root_b == pytest.approx(np.full(8, (corpus_small.n - 1) / 2))

    def test_default_ids_are_arange(self, core_model_small, corpus_small):
        assert np.array_equal(core_model_small.ids, np.arange(corpus_small.n))

    def test_custom_ids_returned_by_search(self, corpus_small):
        ids = np.arange(corpus_small.n) * 10 + 3
        cm = CoreModel(CoreModelConfig(h=4)).fit(corpus_small.emb, ids)
        got, _ = cm.search(corpus_small.emb[0], 5)
        assert all(g % 10 == 3 for g in got)

    def test_empty_corpus_raises(self):
        with pytest.raises(ValueError):
            CoreModel(CoreModelConfig()).fit(np.empty((0, 8), dtype=np.float32))

    def test_misaligned_ids_raise(self, corpus_small):
        with pytest.raises(ValueError):
            CoreModel(CoreModelConfig()).fit(corpus_small.emb, np.arange(5))

    def test_deterministic_rebuild(self, corpus_small):
        a = CoreModel(CoreModelConfig(h=3)).fit(corpus_small.emb)
        b = CoreModel(CoreModelConfig(h=3)).fit(corpus_small.emb)
        for arr_a, arr_b in zip(a.esklsh.arrays, b.esklsh.arrays):
            assert np.array_equal(arr_a.keys, arr_b.keys)
            assert np.array_equal(arr_a.rows, arr_b.rows)
        for name in PARAMS:
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_groups_hash_differently(self, corpus_small):
        a = CoreModel(CoreModelConfig(h=2, group=0)).fit(corpus_small.emb)
        b = CoreModel(CoreModelConfig(h=2, group=1)).fit(corpus_small.emb)
        assert not np.array_equal(a.esklsh.arrays[0].keys, b.esklsh.arrays[0].keys)


class TestPredictLocations:
    def test_fast_path_matches_reference(self, core_model_small, queries_small):
        """The folded, stacked path equals the per-array reference."""
        assert_matches_reference(core_model_small, queries_small.emb)

    def test_fast_path_matches_reference_without_rescale(self, corpus_small):
        """The Table-4 ablation arm: raw decimal keys, diverged slopes of
        ±1e30 — still exact, with no overflow or invalid operation."""
        cm = CoreModel(CoreModelConfig(h=4, rescale=False, pad=12)).fit(corpus_small.emb)
        assert (np.abs(cm.child_a) == 1e30).any()
        with np.errstate(all="raise"):
            assert_matches_reference(cm, corpus_small.emb[:20])

    def test_identical_keys_match_reference(self, corpus_small):
        """A corpus of one repeated vector: every key equal, span 0."""
        emb = np.repeat(corpus_small.emb[:1], 50, axis=0)
        cm = CoreModel(CoreModelConfig(h=4)).fit(emb)
        assert all(arr.keys.min() == arr.keys.max() for arr in cm.esklsh.arrays)
        assert_matches_reference(cm, corpus_small.emb[:20])

    def test_locations_in_range(self, core_model_small, queries_small, corpus_small):
        for q in queries_small.emb[:10]:
            _, locs = core_model_small.predict_locations(q)
            assert (locs >= 0).all() and (locs < corpus_small.n).all()

    def test_prediction_close_to_true_location(self, core_model_small, queries_small, corpus_small):
        """With re-scaling, the median |pred − searchsorted| error must be a
        small fraction of the array (else expansion windows miss)."""
        errs = []
        for q in queries_small.emb:
            q_keys, locs = core_model_small.predict_locations(q)
            true = [
                arr.entry_location(int(k))
                for arr, k in zip(core_model_small.esklsh.arrays, q_keys)
            ]
            errs.append(np.abs(locs - np.asarray(true)))
        assert np.median(np.concatenate(errs)) < corpus_small.n * 0.05


class TestSearch:
    def test_topk_size_and_order(self, core_model_small, queries_small):
        ids, scores = core_model_small.search(queries_small.emb[0], 20)
        assert len(ids) == 20
        assert (np.diff(scores) <= 1e-6).all()

    def test_scores_are_true_cosines(self, core_model_small, corpus_small, queries_small):
        q = queries_small.emb[1]
        ids, scores = core_model_small.search(q, 10)
        assert scores == pytest.approx(corpus_small.emb[ids] @ q, abs=1e-6)

    def test_indexed_point_finds_itself(self, core_model_small, corpus_small):
        for row in (0, 100, 999):
            ids, _ = core_model_small.search(corpus_small.emb[row], 10)
            assert row == ids[0]

    def test_recall_reasonable(self, core_model_small, queries_small, truth_small):
        ranked = [core_model_small.search(q, 100)[0] for q in queries_small.emb]
        assert recall_at_k(ranked, truth_small, 100) > 0.5

    def test_km_respected(self, core_model_small, queries_small):
        ids, _ = core_model_small.search(queries_small.emb[0], 3)
        assert len(ids) == 3

    def test_larger_r0_not_worse(self, corpus_small, queries_small, truth_small):
        small = CoreModel(CoreModelConfig(h=4, r0=1)).fit(corpus_small.emb)
        big = CoreModel(CoreModelConfig(h=4, r0=8)).fit(corpus_small.emb)
        r_small = recall_at_k([small.search(q, 50)[0] for q in queries_small.emb], truth_small, 50)
        r_big = recall_at_k([big.search(q, 50)[0] for q in queries_small.emb], truth_small, 50)
        assert r_big >= r_small

    def test_more_arrays_not_worse(self, corpus_small, queries_small, truth_small):
        """The Table-3 trend: more ESK-LSH arrays → better retrieval."""
        few = CoreModel(CoreModelConfig(h=2)).fit(corpus_small.emb)
        many = CoreModel(CoreModelConfig(h=16)).fit(corpus_small.emb)
        r_few = recall_at_k([few.search(q, 50)[0] for q in queries_small.emb], truth_small, 50)
        r_many = recall_at_k([many.search(q, 50)[0] for q in queries_small.emb], truth_small, 50)
        assert r_many >= r_few


class TestStats:
    def test_nbytes_positive_and_excludes_embeddings(self, core_model_small, corpus_small):
        assert 0 < core_model_small.nbytes < corpus_small.emb.nbytes * 10
