"""Tests for the FALCONN-style multi-probe LSH baseline."""
import numpy as np
import pytest

from repro.baselines.falconn import MultiProbeLSHIndex
from repro.lsh.hashkeys import pack_bits
from repro.metrics import recall_at_k


@pytest.fixture(scope="module")
def fitted(corpus_small):
    return MultiProbeLSHIndex(h=8, n_probes=6).fit(corpus_small.emb)


class TestBuild:
    def test_table_count(self, fitted):
        assert len(fitted.tables) == 8

    def test_buckets_partition_corpus(self, fitted, corpus_small):
        for table in fitted.tables:
            members = np.concatenate(list(table.values()))
            assert np.array_equal(np.sort(members), np.arange(corpus_small.n))

    def test_default_bits_log2_n(self, fitted, corpus_small):
        assert fitted._m_bits == int(np.ceil(np.log2(corpus_small.n)))

    def test_bucket_keys_match_hashers(self, fitted, corpus_small):
        keys = pack_bits((corpus_small.emb @ fitted.planes[0].T) > 0)
        table = fitted.tables[0]
        for kv, members in list(table.items())[:20]:
            assert (keys[members] == kv).all()


class TestProbing:
    def test_probe_sequence_starts_at_base(self, fitted):
        proj = np.array([0.5, -0.1, 2.0, 0.01] * 3, dtype=np.float32)[: fitted._m_bits]
        probes = fitted._probe_keys(0b1010, proj[: fitted._m_bits])
        assert probes[0] == 0b1010

    def test_probe_count(self, fitted):
        proj = np.linspace(-1, 1, fitted._m_bits).astype(np.float32)
        assert len(fitted._probe_keys(0, proj)) == fitted.n_probes

    def test_probes_flip_single_bits(self, fitted):
        proj = np.linspace(0.1, 1, fitted._m_bits).astype(np.float32)
        probes = fitted._probe_keys(0, proj)
        for p in probes[1:]:
            assert bin(p).count("1") == 1  # one flipped bit each

    def test_least_confident_bit_flipped_first(self, fitted):
        m = fitted._m_bits
        proj = np.arange(1, m + 1, dtype=np.float32)
        proj[3] = 0.001  # bit 3 (MSB-indexed) least confident
        probes = fitted._probe_keys(0, proj)
        assert probes[1] == 1 << (m - 1 - 3)


class TestSearch:
    def test_contract(self, fitted, queries_small):
        out = fitted.search(queries_small.emb[0], 30)
        assert len(set(out.tolist())) == len(out) <= 30

    def test_self_found(self, fitted, corpus_small):
        hits = sum(
            i in fitted.search(corpus_small.emb[i], 10) for i in range(0, 100, 10)
        )
        assert hits >= 8

    def test_recall_beats_random(self, fitted, queries_small, truth_small):
        ranked = [fitted.search(q, 100) for q in queries_small.emb[:20]]
        assert recall_at_k(ranked, truth_small[:20], 100) > 0.1

    def test_more_probes_not_worse(self, corpus_small, queries_small, truth_small):
        lo = MultiProbeLSHIndex(h=8, n_probes=1).fit(corpus_small.emb)
        hi = MultiProbeLSHIndex(h=8, n_probes=12).fit(corpus_small.emb)
        r_lo = recall_at_k([lo.search(q, 100) for q in queries_small.emb[:20]], truth_small[:20], 100)
        r_hi = recall_at_k([hi.search(q, 100) for q in queries_small.emb[:20]], truth_small[:20], 100)
        assert r_hi >= r_lo

    def test_more_tables_not_worse(self, corpus_small, queries_small, truth_small):
        lo = MultiProbeLSHIndex(h=2, n_probes=6).fit(corpus_small.emb)
        hi = MultiProbeLSHIndex(h=16, n_probes=6).fit(corpus_small.emb)
        r_lo = recall_at_k([lo.search(q, 100) for q in queries_small.emb[:20]], truth_small[:20], 100)
        r_hi = recall_at_k([hi.search(q, 100) for q in queries_small.emb[:20]], truth_small[:20], 100)
        assert r_hi >= r_lo

    def test_scores_exact_on_candidates(self, fitted, corpus_small, queries_small):
        """Verification is exact inner product (not approximated)."""
        q = queries_small.emb[3]
        out = fitted.search(q, 10)
        sims = corpus_small.emb[out] @ q
        assert (np.diff(sims) <= 1e-6).all()

    def test_nbytes_positive(self, fitted):
        assert fitted.nbytes > 0
