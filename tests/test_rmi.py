"""Tests for the simplified RMI and its fixed-configuration GD training
(§5.2 + the Table-4 out-of-range mechanism)."""
import numpy as np
import pytest

from repro.rmi.rmi import LinearModel, SimplifiedRMI, _gd_slope, prediction_stats


class TestLinearModel:
    def test_fits_exact_line_on_scaled_input(self):
        l = 1000
        x = np.linspace(0, l - 1, 200)
        y = 2.0 * x + 5.0
        m = LinearModel.fit(x, y, l_ref=l)
        assert m.predict(x) == pytest.approx(y, abs=1e-6)

    def test_converges_to_ols_on_scaled_input(self):
        g = np.random.default_rng(0)
        l = 500
        x = g.uniform(0, l - 1, 300)
        y = 0.7 * x + 10 + g.normal(0, 5, 300)
        m = LinearModel.fit(x, y, l_ref=l)
        slope, intercept = np.polyfit(x, y, 1)
        assert m.a == pytest.approx(slope, rel=1e-6)
        assert m.predict(np.array([0.0]))[0] == pytest.approx(intercept, rel=1e-3)

    def test_diverges_on_unscaled_huge_keys(self):
        """The Table-4 mechanism: keys ≫ L make the fixed-lr GD diverge."""
        g = np.random.default_rng(1)
        l = 1000
        x = g.uniform(0, 2**30, 300)  # raw decimal keys, var ≫ L²
        y = np.arange(300, dtype=np.float64)
        m = LinearModel.fit(x, y, l_ref=l)
        pred = m.predict(x)
        clipped = np.clip(pred, 0, l - 1)
        oor = (clipped == 0) | (clipped == l - 1)
        assert oor.mean() > 0.9

    def test_constant_x_predicts_mean(self):
        x = np.full(10, 3.0)
        y = np.arange(10, dtype=np.float64)
        m = LinearModel.fit(x, y, l_ref=10)
        assert m.a == 0.0 and m.predict(x)[0] == pytest.approx(4.5)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            LinearModel.fit(np.array([]), np.array([]), l_ref=10)

    def test_misaligned_raises(self):
        with pytest.raises(ValueError):
            LinearModel.fit(np.arange(3.0), np.arange(4.0), l_ref=10)

    def test_predictions_always_finite(self):
        m = LinearModel(a=1e30, b=0.0, x_mean=0.0)
        out = m.predict(np.array([1e30, -1e30, 0.0]))
        assert np.isfinite(out).all()


class TestGDSlope:
    def test_zero_variance(self):
        assert _gd_slope(0.0, 1.0, 0.1, 100) == 0.0

    def test_contraction_reaches_ols(self):
        var, cov = 4.0, 2.0
        a = _gd_slope(var, cov, lr=0.1, steps=2000)
        assert a == pytest.approx(cov / var)

    def test_divergence_produces_huge_slope(self):
        a = _gd_slope(var=1e12, cov=1e6, lr=0.1, steps=2000)
        assert abs(a) >= 1e29

    def test_matches_stepwise_iteration(self):
        var, cov, lr, steps = 3.0, 1.2, 0.05, 2000
        a_iter = 0.0
        for _ in range(steps):
            a_iter += 2 * lr * (cov - a_iter * var)
        assert _gd_slope(var, cov, lr, steps) == pytest.approx(a_iter)

    def test_matches_stepwise_iteration_oscillating(self):
        # |r| slightly above 1: slow divergence, still matched exactly.
        var, cov, lr, steps = 10.5, 1.0, 0.1, 2000
        a_iter = 0.0
        for _ in range(steps):
            a_iter += 2 * lr * (cov - a_iter * var)
        assert _gd_slope(var, cov, lr, steps) == pytest.approx(a_iter, rel=1e-9)


class TestSimplifiedRMI:
    def _fit(self, n=1000, width=5, seed=0):
        g = np.random.default_rng(seed)
        keys = np.sort(g.uniform(0, n - 1, n))
        rmi = SimplifiedRMI(width, n).fit(keys, np.arange(n, dtype=np.float64))
        return rmi, keys

    def test_structure(self):
        rmi, _ = self._fit(width=7)
        assert rmi.root is not None and len(rmi.children) == 7

    def test_predicts_training_locations_closely(self):
        rmi, keys = self._fit()
        pred = rmi.predict_location(keys)
        err = np.abs(pred - np.arange(1000))
        assert np.median(err) < 30

    def test_nearly_linear_cdf_is_fit_well(self):
        n = 2000
        keys = np.linspace(0, n - 1, n)
        rmi = SimplifiedRMI(5, n).fit(keys, np.arange(n, dtype=np.float64))
        pred = rmi.predict_location(keys)
        assert np.abs(pred - np.arange(n)).max() <= 2

    def test_predictions_clipped_to_range(self):
        rmi, _ = self._fit()
        out = rmi.predict_location(np.array([-1e9, 1e9]))
        assert out[0] == 0 and out[1] == 999

    def test_width_one_equals_single_model(self):
        n = 500
        keys = np.linspace(0, n - 1, n)
        rmi = SimplifiedRMI(1, n).fit(keys, np.arange(n, dtype=np.float64))
        assert len(rmi.children) == 1

    def test_empty_child_falls_back_to_root(self):
        # All keys identical → root routes everything to one child.
        n = 100
        keys = np.zeros(n)
        rmi = SimplifiedRMI(4, n).fit(keys, np.arange(n, dtype=np.float64))
        preds = rmi.predict_location(np.array([0.0]))
        assert 0 <= preds[0] <= n - 1

    def test_wrong_training_size_raises(self):
        with pytest.raises(ValueError):
            SimplifiedRMI(2, 10).fit(np.arange(5.0), np.arange(5.0))

    def test_invalid_width_raises(self):
        with pytest.raises(ValueError):
            SimplifiedRMI(0, 10)

    def test_invalid_length_raises(self):
        with pytest.raises(ValueError):
            SimplifiedRMI(2, 0)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            SimplifiedRMI(2, 10).predict_raw(np.array([1.0]))

    def test_more_width_does_not_hurt_much(self):
        """§5: wider second layer → smaller subspaces → better fit."""
        g = np.random.default_rng(3)
        n = 2000
        keys = np.sort(g.gamma(2.0, 100.0, n))  # skewed CDF
        narrow = SimplifiedRMI(2, n).fit(keys, np.arange(n, dtype=np.float64))
        wide = SimplifiedRMI(16, n).fit(keys, np.arange(n, dtype=np.float64))
        err_n = np.abs(narrow.predict_location(keys) - np.arange(n)).mean()
        err_w = np.abs(wide.predict_location(keys) - np.arange(n)).mean()
        assert err_w <= err_n * 1.1

    def test_nbytes(self):
        rmi, _ = self._fit(width=5)
        assert rmi.nbytes == 6 * 3 * 8


class TestPredictionStats:
    def test_counts(self):
        pred = np.array([0, 50, 999, 400])
        true = np.array([300, 55, 999, 401])
        s = prediction_stats(pred, true, array_length=1000, le_threshold=100)
        assert s == {"n_oor": 2, "n_le": 1, "n_overlap": 1, "n_total": 4}

    def test_no_oor_when_interior(self):
        s = prediction_stats(np.array([5, 7]), np.array([5, 900]), 1000)
        assert s["n_oor"] == 0 and s["n_le"] == 1

    def test_threshold_boundary_exclusive(self):
        s = prediction_stats(np.array([200]), np.array([100]), 1000, le_threshold=100)
        assert s["n_le"] == 0
