"""Tests for the hyperplane random-projection LSH family (§4.1)."""
import numpy as np
import pytest

from repro.lsh.hashkeys import MAX_BITS, pack_bits
from repro.lsh.projections import hyperplanes


def _unit(v):
    return v / np.linalg.norm(v)


def _bits(planes, x):
    """Sign bits of x under one (M, d) slice: (M,) for a vector, (n, M)
    for a batch — the bits ESK-LSH packs into hashkeys."""
    return (np.asarray(x, dtype=np.float32) @ planes.T) > 0


def _keys(planes, x):
    bits = _bits(planes, x)
    return pack_bits(bits) if bits.ndim == 2 else pack_bits(bits[None])[0]


class TestRandomHyperplanes:
    """Per-slice contract of ``hyperplanes()``: slice h is the random
    hyperplane function seeded by (base_seed, group, h)."""

    def test_deterministic_in_seed_key(self):
        # Slice 3 depends only on (1, 2, 3), not on how many slices are drawn.
        a = hyperplanes(16, 8, 4, base_seed=1, group=2)[3]
        b = hyperplanes(16, 8, 6, base_seed=1, group=2)[3]
        assert np.array_equal(a, b)

    def test_different_seed_keys_differ(self):
        p = hyperplanes(16, 8, 5, base_seed=1, group=2)
        assert not np.array_equal(p[3], p[4])

    def test_bits_shape_batch(self):
        p = hyperplanes(8, 12, 1, base_seed=0, group=0)[0]
        x = np.random.default_rng(0).standard_normal((5, 8))
        assert _bits(p, x).shape == (5, 12)

    def test_bits_shape_single(self):
        p = hyperplanes(8, 12, 1, base_seed=0, group=0)[0]
        assert _bits(p, np.ones(8)).shape == (12,)

    def test_keys_scalar_for_single_vector(self):
        p = hyperplanes(8, 12, 1, base_seed=0, group=0)[0]
        k = _keys(p, np.ones(8))
        assert np.isscalar(k) or k.shape == ()

    def test_keys_match_bits(self):
        p = hyperplanes(8, 10, 3, base_seed=0, group=1)[2]
        x = np.random.default_rng(1).standard_normal((7, 8))
        assert np.array_equal(_keys(p, x), pack_bits(_bits(p, x)))

    def test_identical_vectors_identical_keys(self):
        p = hyperplanes(16, 20, 6, base_seed=5, group=5)[5]
        v = np.random.default_rng(2).standard_normal(16)
        assert _keys(p, v) == _keys(p, v.copy())

    def test_antipodal_vectors_opposite_bits(self):
        p = hyperplanes(16, 20, 6, base_seed=5, group=5)[5]
        v = np.random.default_rng(3).standard_normal(16)
        # Projections are never exactly zero for random data.
        assert np.array_equal(_bits(p, v), ~_bits(p, -v))


class TestFamily:
    """``hyperplanes()``: the (H, M, d) planes of H compound functions."""

    def test_family_size(self):
        p = hyperplanes(8, 6, h=5)
        assert p.shape == (5, 6, 8) and p.dtype == np.float32

    def test_nbytes_positive(self):
        assert hyperplanes(8, 6, h=2).nbytes == 2 * 6 * 8 * 4

    def test_group_deterministic(self):
        a = hyperplanes(16, 8, 3, base_seed=1, group=2)
        b = hyperplanes(16, 8, 3, base_seed=1, group=2)
        assert np.array_equal(a, b)

    def test_family_members_independent(self):
        p = hyperplanes(8, 6, h=3)
        assert not np.array_equal(p[0], p[1])
        assert not np.array_equal(p[1], p[2])

    def test_groups_distinct(self):
        a = hyperplanes(8, 6, 2, group=0)
        assert not np.array_equal(a, hyperplanes(8, 6, 2, group=1))
        assert not np.array_equal(a, hyperplanes(8, 6, 2, base_seed=99, group=0))

    def test_negative_group_supported(self):
        # The centroids retriever uses group=-1.
        p = hyperplanes(8, 4, 2, group=-1)
        assert not np.array_equal(p, hyperplanes(8, 4, 2, group=0))

    def test_invalid_dim_raises(self):
        with pytest.raises(ValueError):
            hyperplanes(0, 8, 2)

    @pytest.mark.parametrize("group", [-1, 0, 10_000])
    def test_slice_is_prefix_of_seeded_draw(self, group):
        """Slice i is the first M rows of the (base_seed, group, i) draw, so
        a shorter hashkey's planes are a view of a longer tensor's."""
        p = hyperplanes(24, 12, 3, base_seed=1234, group=group)
        for i in range(3):
            g = np.random.default_rng([s + 2**31 for s in (1234, group, i)])
            full = g.standard_normal((MAX_BITS, 24)).astype(np.float32)
            assert np.array_equal(p[i], full[:12])

    def test_collision_probability_monotone_in_angle(self):
        """Eq. 2: P[h(u)=h(v)] = 1 − θ/π — closer vectors collide more."""
        g = np.random.default_rng(7)
        dim = 32
        planes = hyperplanes(dim, 50, 40, group=9).reshape(-1, dim)  # 2000 bits
        u = _unit(g.standard_normal(dim))
        w = g.standard_normal(dim)
        w = _unit(w - (w @ u) * u)  # orthogonal to u
        rates = []
        for theta in (0.1 * np.pi, 0.3 * np.pi, 0.5 * np.pi):
            v = np.cos(theta) * u + np.sin(theta) * w
            rate = (((planes @ u) > 0) == ((planes @ v) > 0)).mean()
            rates.append(rate)
            assert rate == pytest.approx(1 - theta / np.pi, abs=0.05)
        assert rates[0] > rates[1] > rates[2]
