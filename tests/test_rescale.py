"""Tests for the key re-scaling module (§5.1, Eq. 8)."""
import numpy as np
import pytest

from repro.rmi.rescale import KeyRescaler


class TestKeyRescaler:
    def test_range_is_zero_to_l_minus_one(self):
        keys = np.array([10, 20, 30, 90], dtype=np.uint64)
        out = KeyRescaler(1000).fit_transform(keys)
        assert out.min() == 0.0 and out.max() == 999.0

    def test_monotone(self):
        keys = np.sort(np.random.default_rng(0).integers(0, 2**40, 50)).astype(np.uint64)
        out = KeyRescaler(500).fit_transform(keys)
        assert (np.diff(out) >= 0).all()

    def test_linear_in_decimal_value(self):
        keys = np.array([0, 25, 50, 100], dtype=np.uint64)
        out = KeyRescaler(101).fit_transform(keys)
        assert np.allclose(out, [0, 25, 50, 100])

    def test_huge_keys_scaled_down(self):
        keys = np.array([2**45, 2**45 + 2**44, 2**46], dtype=np.uint64)
        out = KeyRescaler(100).fit_transform(keys)
        assert out.max() == 99.0 and out.min() == 0.0

    def test_disabled_returns_raw_decimal(self):
        keys = np.array([2**30, 2**31], dtype=np.uint64)
        out = KeyRescaler(10, enabled=False).fit_transform(keys)
        assert np.array_equal(out, [2.0**30, 2.0**31])

    def test_constant_keys_map_to_zero(self):
        keys = np.full(5, 7, dtype=np.uint64)
        out = KeyRescaler(10).fit_transform(keys)
        assert (out == 0.0).all()

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            KeyRescaler(10).transform(np.array([1], dtype=np.uint64))

    def test_invalid_length_raises(self):
        with pytest.raises(ValueError):
            KeyRescaler(0)

    def test_query_key_outside_training_range_extrapolates(self):
        r = KeyRescaler(11).fit(np.array([10, 20], dtype=np.uint64))
        assert r.transform(np.array([30], dtype=np.uint64))[0] == pytest.approx(20.0)
        assert r.transform(np.array([0], dtype=np.uint64))[0] == pytest.approx(-10.0)

    def test_exactness_at_50_bits(self):
        keys = np.array([2**50 - 1, 2**50 - 2], dtype=np.uint64)
        out = KeyRescaler(2, enabled=False).fit_transform(keys)
        assert out[0] != out[1]  # float64 still distinguishes adjacent keys
