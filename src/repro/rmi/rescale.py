"""Key re-scaling module (paper §5.1).

Converts binary hashkeys into RMI keys in two steps: (1) read the M-bit
hashkey as a decimal integer; (2) min-max normalise it (Eq. 8) into
[0, L_array − 1] so keys live on the same scale as their labels (the
array locations). Step 2 is what makes the RMI's fixed training
configuration well-conditioned — see §5.1 and the Table-4 ablation.

With ``enabled=False`` only step (1) is applied (the ablation arm).
Decimal values are exact: hashkey length is capped at 50 bits
(< 2^53, the float64 integer limit).
"""
from __future__ import annotations

import numpy as np


class KeyRescaler:
    """Min-max re-scaling of decimal hashkeys into [0, L-1]."""

    def __init__(self, array_length: int, *, enabled: bool = True):
        if array_length <= 0:
            raise ValueError("array_length must be positive")
        self.array_length = int(array_length)
        self.enabled = bool(enabled)
        self.key_min: float | None = None
        self.key_max: float | None = None

    def fit(self, keys: np.ndarray) -> "KeyRescaler":
        dec = np.asarray(keys, dtype=np.uint64).astype(np.float64)
        self.key_min = float(dec.min())
        self.key_max = float(dec.max())
        return self

    def transform(self, keys: np.ndarray) -> np.ndarray:
        """uint64 hashkeys → float64 RMI keys (shape-preserving)."""
        if self.key_min is None:
            raise RuntimeError("KeyRescaler.transform called before fit")
        dec = np.asarray(keys, dtype=np.uint64).astype(np.float64)
        if not self.enabled:
            return dec
        span = self.key_max - self.key_min
        b = float(self.array_length - 1)
        if span <= 0:
            # Degenerate corpus (all keys identical): map everything to 0.
            return np.zeros_like(dec)
        return (dec - self.key_min) / span * b

    def fit_transform(self, keys: np.ndarray) -> np.ndarray:
        return self.fit(keys).transform(keys)
