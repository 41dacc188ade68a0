"""Tests for the core model (§3.1/§3.3.1): build, prediction, search."""
import numpy as np
import pytest

from repro.baselines.sklsh import SKLSHIndex
from repro.core import core_model
from repro.core.core_model import CoreModel, CoreModelConfig, scans_whole, top_k
from repro.embeddings.corpus import make_corpus
from repro.lsh.esklsh import ESKLSH
from repro.lsh.hashkeys import pack_bits
from repro.metrics import recall_at_k
from repro.rmi.rescale import KeyRescaler
from repro.rmi.rmi import _BIG, SimplifiedRMI

PARAMS = ("roots", "children")


def fold_rmi(rescaler: KeyRescaler, rmi: SimplifiedRMI) -> np.ndarray:
    """(3, 1 + W) rows A, X, B of one fitted array, root in column 0: the
    re-scaler composed with each linear model, folded as ``fit_rmis``
    documents."""
    models = [rmi.root, *rmi.children]
    a = np.array([m.a for m in models])
    x = np.array([m.x_mean for m in models])
    b = np.array([m.b for m in models])
    if rescaler.enabled:
        span = rescaler.key_max - rescaler.key_min
        if span > 0:
            l1 = rescaler.array_length - 1
            a, x = a * l1 / span, rescaler.key_min + x * span / l1
        else:
            a, x = np.zeros_like(a), np.full_like(x, rescaler.key_min)
    return np.stack([np.clip(a, -_BIG, _BIG), x, b])


def reference_fit(esklsh: ESKLSH, x: np.ndarray, width: int, rescale: bool) -> dict:
    """The per-array reference build of ``x`` under ``esklsh``'s planes: a
    stable argsort of each array's keys, then ``KeyRescaler`` →
    ``SimplifiedRMI`` → :func:`fold_rmi`. Also returns each array's root
    routing (the child index of every sorted key)."""
    out = {"rows": [], "keys": [], "params": [], "routes": []}
    for h in range(esklsh.h):
        keys = esklsh.hash(x, h)
        rows = np.argsort(keys, kind="stable")
        rescaler = KeyRescaler(len(rows), enabled=rescale)
        scaled = rescaler.fit_transform(keys[rows])
        rmi = SimplifiedRMI(width, len(rows)).fit(scaled, np.arange(len(rows), dtype=np.float64))
        out["rows"].append(rows)
        out["keys"].append(keys[rows])
        out["params"].append(fold_rmi(rescaler, rmi))
        out["routes"].append(rmi._route(scaled))
    p = np.stack(out.pop("params"), axis=1)
    out["roots"], out["children"] = p[:, :, 0], p[:, :, 1:]
    out["rows"], out["keys"] = np.stack(out["rows"]), np.stack(out["keys"])
    return out


def assert_fit_matches_reference(cm: CoreModel, x: np.ndarray) -> dict:
    """``cm``'s sorted rows and keys and its folded parameters equal the
    per-array reference's, bit for bit."""
    ref = reference_fit(cm.esklsh, x, cm.config.width, cm.config.rescale)
    assert np.array_equal(cm.esklsh.rows, ref["rows"])
    assert np.array_equal(cm.esklsh.keys, ref["keys"])
    assert np.array_equal(cm.roots, ref["roots"])
    assert np.array_equal(cm.children, ref["children"])
    return ref


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
        assert cm.roots.shape == (3, 8)
        assert cm.children.shape == (3, 8, cm.config.width)

    def test_arrays_cover_corpus(self, core_model_small, corpus_small):
        for arr in core_model_small.esklsh.arrays:
            assert len(arr) == corpus_small.n

    def test_rmi_trained_per_array(self, core_model_small, corpus_small):
        """Every array's root is fitted: ascending keys → ascending
        locations, centred on the mean location."""
        cm = core_model_small
        assert (cm.roots[0] > 0).all()
        assert cm.roots[2] == pytest.approx(np.full(8, (corpus_small.n - 1) / 2))

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

    def test_given_planes_hash_with_all_their_bits(self, corpus_small):
        """Given a longer tensor than its own draw, a model keys its corpus
        and its queries with every bit of it."""
        cfg = CoreModelConfig(h=3)
        shared = cfg.hyperplanes(corpus_small.dim, 100 * corpus_small.n)
        assert shared.shape[1] > cfg.hashkey_bits(corpus_small.n)
        model = CoreModel(cfg).fit(corpus_small.emb, planes=shared)
        assert model.esklsh.planes is shared
        for h, arr in enumerate(model.esklsh.arrays):
            want = pack_bits((corpus_small.emb @ shared[h].T) > 0)
            assert np.array_equal(arr.keys, want[arr.rows])
        q = corpus_small.emb[7]
        assert np.array_equal(model.esklsh.query_keys(q), pack_bits((shared @ q) > 0))

    def test_planes_that_cannot_hash_raise(self, corpus_small):
        cfg = CoreModelConfig(h=3)
        d, n = corpus_small.dim, corpus_small.n
        too_short = cfg.hyperplanes(d, n // 100)
        wrong_h = CoreModelConfig(h=2).hyperplanes(d, n)
        wrong_dim = cfg.hyperplanes(d + 1, n)
        for planes in (too_short, wrong_h, wrong_dim):
            with pytest.raises(ValueError, match="cannot hash"):
                CoreModel(cfg).fit(corpus_small.emb, planes=planes)


class TestFitEqualsReference:
    """``CoreModel.fit`` (one sort per array, RMIs fitted from sorted
    slices) builds exactly what the per-array reference builds."""

    def test_default_config(self, core_model_small, corpus_small):
        ref = assert_fit_matches_reference(core_model_small, corpus_small.emb)
        assert all((np.diff(r) >= 0).all() for r in ref["routes"])

    def test_without_rescale_routes_through_masks(self, corpus_small):
        """The Table-4 arm: diverged slopes route keys non-monotonically."""
        cm = CoreModel(CoreModelConfig(h=4, rescale=False, pad=12)).fit(corpus_small.emb)
        ref = assert_fit_matches_reference(cm, corpus_small.emb)
        assert any((np.diff(r) < 0).any() for r in ref["routes"])

    def test_identical_rows(self, corpus_small):
        emb = np.repeat(corpus_small.emb[:1], 50, axis=0)
        cm = CoreModel(CoreModelConfig(h=4)).fit(emb)
        assert_fit_matches_reference(cm, emb)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("rescale", [True, False])
    def test_tiny_collections(self, corpus_small, n, rescale):
        cm = CoreModel(CoreModelConfig(h=4, rescale=rescale)).fit(corpus_small.emb[:n])
        assert_fit_matches_reference(cm, corpus_small.emb[:n])

    @pytest.mark.parametrize("rescale", [True, False])
    def test_heavily_tied_keys(self, corpus_small, rescale):
        """30 distinct rows repeated over 900, and 4-bit keys."""
        emb = corpus_small.emb[np.random.default_rng(1).integers(0, 30, 900)]
        cm = CoreModel(CoreModelConfig(h=6, pad=-6, rescale=rescale)).fit(emb)
        assert cm.esklsh.m == 4
        assert max(np.unique(k).size for k in cm.esklsh.keys) <= 16
        assert_fit_matches_reference(cm, emb)

    @pytest.mark.parametrize("n", [2**14, 2**14 + 1])
    def test_sort_either_side_of_64_bits(self, n):
        """SK-LSH with 50-bit keys: 2^14 rows need 14 row bits (one sort of
        key << 14 | row), 2^14 + 1 need 15, past 64 (a stable argsort)."""
        emb = make_corpus(3000, dim=8, seed=5).emb
        emb = emb[np.random.default_rng(5).integers(0, 3000, n)]
        esk = SKLSHIndex(h=2, m=50).fit(emb).esklsh
        ref = reference_fit(esk, emb, 1, False)
        assert (np.diff(ref["keys"]) == 0).any()
        assert np.array_equal(esk.rows, ref["rows"])
        assert np.array_equal(esk.keys, ref["keys"])


class TestPredictLocations:
    def test_fast_path_matches_reference(self, core_model_small, queries_small):
        """The folded, stacked path equals the per-array reference."""
        assert_matches_reference(core_model_small, queries_small.emb)

    def test_fast_path_matches_reference_without_rescale(self, corpus_small):
        """The Table-4 ablation arm: raw decimal keys, diverged slopes of
        ±1e30 — still exact, with no overflow or invalid operation."""
        cm = CoreModel(CoreModelConfig(h=4, rescale=False, pad=12)).fit(corpus_small.emb)
        assert (np.abs(cm.children[0]) == 1e30).any()
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
        """Through the windows: H·r0·k = 960 slots over 2000 rows."""
        assert not scans_whole(8, core_model_small.config.r0 * 30, 2000)
        ranked = [core_model_small.search(q, 30)[0] for q in queries_small.emb]
        assert recall_at_k(ranked, truth_small, 30) > 0.5

    def test_whole_scan_is_exact(self, core_model_small, queries_small, truth_small):
        """Above α the model is scanned whole: the exact top-k."""
        assert scans_whole(8, core_model_small.config.r0 * 100, 2000)
        for q, truth in zip(queries_small.emb, truth_small):
            assert np.array_equal(np.sort(core_model_small.search(q, 100)[0]), np.sort(truth))

    def test_km_respected(self, core_model_small, queries_small):
        ids, _ = core_model_small.search(queries_small.emb[0], 3)
        assert len(ids) == 3

    def test_larger_r0_not_worse(self, corpus_small, queries_small, truth_small):
        """Both through the windows: r0=4 reaches 800 slots of 2000 rows."""
        assert not scans_whole(4, 4 * 50, corpus_small.n)
        small = CoreModel(CoreModelConfig(h=4, r0=1)).fit(corpus_small.emb)
        big = CoreModel(CoreModelConfig(h=4, r0=4)).fit(corpus_small.emb)
        r_small = recall_at_k([small.search(q, 50)[0] for q in queries_small.emb], truth_small, 50)
        r_big = recall_at_k([big.search(q, 50)[0] for q in queries_small.emb], truth_small, 50)
        assert r_big >= r_small

    def test_more_arrays_not_worse(self, corpus_small, queries_small, truth_small):
        """The Table-3 trend: more ESK-LSH arrays → better retrieval. Both
        through the windows: H=16 reaches 640 slots of 2000 rows at k=10."""
        assert not scans_whole(16, 4 * 10, corpus_small.n)
        few = CoreModel(CoreModelConfig(h=2)).fit(corpus_small.emb)
        many = CoreModel(CoreModelConfig(h=16)).fit(corpus_small.emb)
        r_few = recall_at_k([few.search(q, 10)[0] for q in queries_small.emb], truth_small, 10)
        r_many = recall_at_k([many.search(q, 10)[0] for q in queries_small.emb], truth_small, 10)
        assert r_many >= r_few


def bad_query(case: str, q: np.ndarray) -> np.ndarray:
    """A copy of the unit query ``q`` with one defect ``check_query`` rejects."""
    q = q.copy()
    if case == "nan":
        q[3] = np.nan
    elif case == "inf":
        q[3] = np.inf
    elif case == "off_norm":
        q *= 100
    else:
        q = q[:-1]
    return q


class TestInputChecks:
    """A standalone model and a LIDER view (whose 250-row clusters are
    scanned whole at k=10, so no window step runs) reject bad queries and
    k < 1 at every search call."""

    @pytest.fixture(params=["standalone", "view"])
    def model(self, request, core_model_small, lider_small):
        if request.param == "standalone":
            model = core_model_small
        else:
            model = lider_small.in_cluster[next(iter(lider_small.in_cluster))]
        whole = scans_whole(model.config.h, model.config.r0 * 10, model.n)
        assert whole == (request.param == "view")
        return model

    @pytest.mark.parametrize("case, match", [
        ("nan", "non-finite"), ("inf", "non-finite"), ("off_norm", "norm"), ("short", "shape"),
    ])
    def test_bad_query_raises(self, model, queries_small, case, match):
        q = bad_query(case, queries_small.emb[0])
        for call in (lambda: model.search(q, 10), lambda: model.candidate_rows(q, 10),
                     lambda: model.predict_locations(q)):
            with pytest.raises(ValueError, match=match):
                call()

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_raises(self, model, queries_small, k):
        for call in (model.search, model.candidate_rows):
            with pytest.raises(ValueError, match="k must be"):
                call(queries_small.emb[0], k)

    @pytest.mark.parametrize("kind", ["standalone", "view"])
    def test_each_call_checks_the_query_once(
        self, core_model_small, lider_small, queries_small, monkeypatch, kind
    ):
        """``search``, ``candidate_rows`` and ``predict_locations`` each run
        ``check_query`` once, here on models that run their windows at k=2."""
        model = core_model_small if kind == "standalone" else lider_small.in_cluster[0]
        assert not scans_whole(model.config.h, model.config.r0 * 2, model.n)
        calls = []
        real = core_model.check_query
        monkeypatch.setattr(core_model, "check_query", lambda *a: calls.append(1) or real(*a))
        q = queries_small.emb[0]
        for call in (lambda: model.search(q, 2), lambda: model.candidate_rows(q, 2),
                     lambda: model.predict_locations(q)):
            calls.clear()
            call()
            assert len(calls) == 1

    @pytest.mark.parametrize("k", [0, -3])
    def test_top_k_below_one_raises(self, k):
        with pytest.raises(ValueError, match="k must be"):
            top_k(np.arange(10.0), k)

    def test_top_k_of_no_scores_is_empty(self):
        assert top_k(np.empty(0), 5).size == 0
        assert top_k(np.arange(10.0), 3).tolist() == [9, 8, 7]


class TestStats:
    def test_nbytes_positive_and_excludes_embeddings(self, core_model_small, corpus_small):
        assert 0 < core_model_small.nbytes < corpus_small.emb.nbytes * 10
