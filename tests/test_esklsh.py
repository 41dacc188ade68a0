"""Tests for ESK-LSH sorted arrays and bi-directional expansion (§4.3)."""
import numpy as np
import pytest

from repro.lsh.esklsh import ESKLSH, SortedKeyArray, expansion_window
from repro.lsh.hashkeys import pack_bits
from repro.lsh.projections import hyperplanes


class TestExpansionWindow:
    def test_centered(self):
        assert expansion_window(50, 10, 100) == (45, 55)

    def test_clipped_left_keeps_width(self):
        assert expansion_window(2, 10, 100) == (0, 10)

    def test_clipped_right_keeps_width(self):
        assert expansion_window(98, 10, 100) == (90, 100)

    def test_window_larger_than_array(self):
        assert expansion_window(5, 50, 20) == (0, 20)

    def test_empty_array(self):
        assert expansion_window(0, 10, 0) == (0, 0)

    def test_width_one(self):
        s, e = expansion_window(3, 1, 10)
        assert e - s == 1

    @pytest.mark.parametrize("loc", [0, 1, 37, 99])
    def test_always_within_bounds(self, loc):
        s, e = expansion_window(loc, 8, 100)
        assert 0 <= s <= e <= 100 and e - s == 8


class TestSortedKeyArray:
    def _arr(self):
        keys = np.array([2, 5, 5, 9, 17], dtype=np.uint64)
        rows = np.arange(5, dtype=np.int64)
        return SortedKeyArray(keys, rows)

    def test_len(self):
        assert len(self._arr()) == 5

    def test_entry_location_exact(self):
        assert self._arr().entry_location(9) == 3

    def test_entry_location_between(self):
        assert self._arr().entry_location(7) == 3

    def test_entry_location_below_min(self):
        assert self._arr().entry_location(0) == 0

    def test_entry_location_above_max_clipped(self):
        assert self._arr().entry_location(100) == 4

    def test_misaligned_raises(self):
        with pytest.raises(ValueError):
            SortedKeyArray(np.array([1], dtype=np.uint64), np.array([1, 2]))

    def test_nbytes_default_uint64(self):
        # no m_bits: uint64 keys (8B) + int32 rows (4B)
        assert self._arr().nbytes == 5 * (8 + 4)

    def test_compact_storage_dtype(self):
        keys = np.array([2, 5, 5, 9, 17], dtype=np.uint64)
        arr = SortedKeyArray(keys, np.arange(5), m_bits=12)
        assert arr.keys.dtype == np.uint16 and arr.nbytes == 5 * (2 + 4)


class TestESKLSH:
    @pytest.fixture(scope="class")
    def index(self, corpus_small):
        return ESKLSH(hyperplanes(corpus_small.dim, 14, 4, group=1)).fit(corpus_small.emb)

    def test_array_count(self, index):
        assert len(index.arrays) == 4

    def test_arrays_sorted(self, index):
        for arr in index.arrays:
            assert (np.diff(arr.keys.astype(np.int64)) >= 0).all()

    def test_rows_are_permutations(self, index, corpus_small):
        for arr in index.arrays:
            assert np.array_equal(np.sort(arr.rows), np.arange(corpus_small.n))

    def test_keys_match_hashers(self, index, corpus_small):
        for planes, arr in zip(index.planes, index.arrays):
            keys = pack_bits((corpus_small.emb @ planes.T) > 0)
            assert np.array_equal(np.sort(keys), arr.keys)

    def test_stable_tie_break_by_row(self, index):
        for arr in index.arrays:
            same = arr.keys[:-1] == arr.keys[1:]
            assert (arr.rows[:-1][same] < arr.rows[1:][same]).all()

    def test_query_keys_shape(self, index, corpus_small):
        qk = index.query_keys(corpus_small.emb[0])
        assert qk.shape == (4,) and qk.dtype == np.uint64

    def test_query_keys_match_per_hasher(self, index, corpus_small):
        # A corpus row hashes to the key its arrays store for it.
        qk = index.query_keys(corpus_small.emb[3])
        for key, arr in zip(qk, index.arrays):
            assert arr.keys[arr.rows == 3] == key

    def test_candidate_rows_dedup(self, index):
        locs = np.zeros(4, dtype=np.int64)
        cands = index.candidate_rows(locs, r=50)
        assert len(np.unique(cands)) == len(cands)

    def test_candidate_rows_budget(self, index):
        locs = np.full(4, 1000, dtype=np.int64)
        cands = index.candidate_rows(locs, r=30)
        assert 1 <= cands.size <= 4 * 30

    def test_indexed_point_recovers_itself(self, index, corpus_small):
        """A corpus point's own hashkeys land on its own sorted positions,
        so a small expansion around the entry location must contain it."""
        hits = 0
        for row in range(0, 200, 10):
            q = corpus_small.emb[row]
            qk = index.query_keys(q)
            locs = np.array(
                [arr.entry_location(int(k)) for arr, k in zip(index.arrays, qk)]
            )
            cands = index.candidate_rows(locs, r=8)
            hits += row in cands
        assert hits == 20

    def test_invalid_h_raises(self):
        with pytest.raises(ValueError):
            ESKLSH(np.zeros((0, 10, 8), dtype=np.float32))

    def test_nbytes_counts_arrays_and_planes(self, index, corpus_small):
        # m=14 bits -> uint16 keys (2B) + int32 rows (4B)
        expected_arrays = 4 * corpus_small.n * (2 + 4)
        expected_planes = 4 * 14 * corpus_small.dim * 4
        assert index.nbytes == expected_arrays + expected_planes
