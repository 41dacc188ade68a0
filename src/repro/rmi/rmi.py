"""Simplified RMI: two layers of linear models (paper §5.2).

The original RMI uses a neural root; LIDER observes that after key
re-scaling the (key, location) pairs are almost linear (Fig. 3) and uses
*linear regression only*, with no hybrid B-tree fallback.

Training (see DESIGN.md "RMI training & the Table-4 ablation"): every
linear model is trained by full-batch gradient descent with ONE fixed
configuration, tuned for the regime the key re-scaler guarantees —
keys in [0, L_array−1], the same scale as the location labels:

    slope lr = 0.6 / L², intercept lr = 0.4, 2000 steps, centered features.

On centered features the slope and intercept iterations decouple exactly,
so GD is simulated in closed form from the sufficient statistics
(mean/var/cov) — exact, fast and deterministic. With re-scaled keys the
slope iteration is a contraction (|1 − 2·lr·var| < 1 since var ≤ L²/4)
and converges to the OLS optimum; with raw decimal keys (var ≫ L²) it
diverges, predictions blow up and are clipped to {0, L−1} — the
out-of-range failure mode the paper's Table 4 measures.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

LR_SLOPE_SCALE = 0.6  # slope learning rate = LR_SLOPE_SCALE / L_ref^2
GD_STEPS = 2000
_BIG = 1e30  # finite stand-in for diverged predictions (clipped anyway)


@dataclass
class LinearModel:
    """y ≈ a·(x − x_mean) + b, trained by fixed-configuration GD."""

    a: float = 0.0
    b: float = 0.0
    x_mean: float = 0.0

    @classmethod
    def fit(cls, x: np.ndarray, y: np.ndarray, l_ref: float) -> "LinearModel":
        """Fit by GD with the fixed configuration; ``l_ref`` is the label
        scale (the array length) the learning rate was tuned for."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.shape != y.shape or x.ndim != 1:
            raise ValueError("x and y must be 1-D and aligned")
        if x.size == 0:
            raise ValueError("cannot fit on empty data")
        x_mean = float(x.mean())
        y_mean = float(y.mean())
        xc = x - x_mean
        var = float(np.mean(xc * xc))
        cov = float(np.mean(xc * (y - y_mean)))
        lr = LR_SLOPE_SCALE / float(l_ref) ** 2
        a = _gd_slope(var, cov, lr, GD_STEPS)
        # Centered intercept GD (lr 0.4) converges to y_mean in a few steps
        # regardless of key scale; we take the fixed point directly.
        return cls(a=a, b=y_mean, x_mean=x_mean)

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            out = self.a * (x - self.x_mean) + self.b
        return np.nan_to_num(out, nan=0.0, posinf=_BIG, neginf=-_BIG)


def _gd_slope(var: float, cov: float, lr: float, steps: int) -> float:
    """Closed form of a_{t+1} = a_t(1 − 2·lr·var) + 2·lr·cov, a_0 = 0.

    a_T = (cov/var)(1 − r^T) with r = 1 − 2·lr·var. For |r| < 1 this is
    (numerically) the OLS slope; for |r| > 1 — the un-rescaled-key regime —
    it diverges exactly as the step-by-step iteration would.
    """
    if var <= 0.0:
        return 0.0
    r = 1.0 - 2.0 * lr * var
    # r^T in log space; T is even so the power is non-negative.
    assert steps % 2 == 0
    ar = abs(r)
    if ar == 0.0:
        r_pow = 0.0
    else:
        log_pow = steps * np.log(ar)
        r_pow = float(np.exp(min(log_pow, 709.0))) if log_pow > -745.0 else 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        a = (cov / var) * (1.0 - r_pow)
    if not np.isfinite(a):
        a = _BIG if a > 0 else -_BIG
    return float(a)


class SimplifiedRMI:
    """Two-layer linear RMI: one root + ``width`` second-layer models.

    Trained on (re-scaled key, location) pairs of one sorted array; predicts
    the location of a query key. ``predict_raw`` exposes the unclipped
    prediction, ``predict_location`` the clipped integer location the
    expansion starts from.
    """

    def __init__(self, width: int, array_length: int):
        if width <= 0:
            raise ValueError("width must be positive")
        if array_length <= 0:
            raise ValueError("array_length must be positive")
        self.width = int(width)
        self.array_length = int(array_length)
        self.root: LinearModel | None = None
        self.children: list[LinearModel] = []

    def fit(self, keys: np.ndarray, locations: np.ndarray) -> "SimplifiedRMI":
        keys = np.asarray(keys, dtype=np.float64)
        locations = np.asarray(locations, dtype=np.float64)
        if keys.shape[0] != self.array_length:
            raise ValueError("training size must equal array_length")
        l_ref = float(self.array_length)
        self.root = LinearModel.fit(keys, locations, l_ref)
        child_idx = self._route(keys)
        self.children = []
        for j in range(self.width):
            mask = child_idx == j
            if mask.any():
                self.children.append(LinearModel.fit(keys[mask], locations[mask], l_ref))
            else:
                # Empty subspace: fall back to the root's prediction.
                self.children.append(replace(self.root))
        return self

    def _route(self, keys: np.ndarray) -> np.ndarray:
        """Root prediction → which second-layer model owns each key."""
        pred = np.clip(self.root.predict(keys), 0, self.array_length - 1)
        idx = np.floor(pred * self.width / self.array_length).astype(np.int64)
        return np.clip(idx, 0, self.width - 1)

    def predict_raw(self, keys: np.ndarray) -> np.ndarray:
        if self.root is None:
            raise RuntimeError("predict before fit")
        keys = np.atleast_1d(np.asarray(keys, dtype=np.float64))
        idx = self._route(keys)
        out = np.empty_like(keys)
        for j in np.unique(idx):
            mask = idx == j
            out[mask] = self.children[j].predict(keys[mask])
        return out

    def predict_location(self, keys: np.ndarray) -> np.ndarray:
        """Clipped integer locations in [0, L−1] (RMI truncates/rounds, §7.4)."""
        raw = self.predict_raw(keys)
        return np.clip(np.rint(raw), 0, self.array_length - 1).astype(np.int64)

    @property
    def nbytes(self) -> int:
        # 3 float64 parameters per linear model.
        return (1 + len(self.children)) * 3 * 8


def prediction_stats(
    predicted: np.ndarray, true_loc: np.ndarray, array_length: int, le_threshold: int = 100
) -> dict:
    """Table-4 statistics: out-of-range (==0 or ==L−1 after clipping),
    large-error (|err| > threshold), and their overlap."""
    predicted = np.asarray(predicted, dtype=np.int64)
    true_loc = np.asarray(true_loc, dtype=np.int64)
    oor = (predicted == 0) | (predicted == array_length - 1)
    le = np.abs(predicted - true_loc) > le_threshold
    return {
        "n_oor": int(oor.sum()),
        "n_le": int(le.sum()),
        "n_overlap": int((oor & le).sum()),
        "n_total": int(predicted.size),
    }
