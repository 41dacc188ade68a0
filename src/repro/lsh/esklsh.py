"""ESK-LSH: H independent sorted hashkey arrays + bi-directional expansion.

The dimension-reduction half of a core model (paper §3.1, §4). Each of the
H arrays holds the corpus hashkeys under one compound LSH function, sorted
in the SK-LSH linear order (numeric order of the packed keys). Search
enters an array at a location (predicted by the RMI in a full core model,
or found by binary search in the SK-LSH baseline) and performs the
bi-directional expansion — "basically a fixed length range search on the
array" (§4) of width R = r0·km. Unlike the original SK-LSH's iterative
*global* merge across arrays, ESK-LSH expands each array *locally and
independently* (§4.3), which is what makes the expansion a vectorisable
window gather here (and thread-parallel in the paper).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.lsh.hashkeys import pack_bits


def expansion_window(loc: int, r: int, length: int) -> tuple[int, int]:
    """[start, end) of the bi-directional expansion range.

    Centered on ``loc``, total width ``r``, shifted (not shrunk) at array
    boundaries so the candidate budget is spent whenever the array allows.
    """
    if length <= 0:
        return 0, 0
    r = min(max(1, r), length)
    start = int(loc) - r // 2
    start = max(0, min(start, length - r))
    return start, start + r


def key_storage_dtype(m_bits: int | None) -> np.dtype:
    """Narrowest unsigned dtype holding an M-bit hashkey.

    Mirrors the paper's Table-5 memory story: in-cluster hashkeys are short
    (M = ceil(log2 cluster_size) + pad), so LIDER's arrays store far fewer
    bytes per element than whole-corpus SK-LSH arrays."""
    if m_bits is None:
        return np.dtype(np.uint64)
    if m_bits <= 16:
        return np.dtype(np.uint16)
    if m_bits <= 32:
        return np.dtype(np.uint32)
    return np.dtype(np.uint64)


@dataclass
class SortedKeyArray:
    """One sorted hashkey array: keys ascending + the corpus rows they index.

    ``m_bits`` selects compact key storage; rows are int32 (corpora here are
    far below 2^31). All distance/packing helpers up-cast to uint64.
    """

    keys: np.ndarray  # (L,) unsigned ints, sorted ascending
    rows: np.ndarray  # (L,) positions into the corpus embedding matrix
    m_bits: int | None = None

    def __post_init__(self):
        self.keys = np.asarray(self.keys).astype(key_storage_dtype(self.m_bits))
        self.rows = np.asarray(self.rows, dtype=np.int32)
        if self.keys.shape != self.rows.shape:
            raise ValueError("keys and rows must align")

    def __len__(self) -> int:
        return self.keys.shape[0]

    def entry_location(self, query_key: int) -> int:
        """Binary-search entry point: location of the closest-by-order key."""
        loc = int(np.searchsorted(self.keys, self.keys.dtype.type(query_key)))
        return min(loc, len(self) - 1)

    @property
    def nbytes(self) -> int:
        return self.keys.nbytes + self.rows.nbytes


class ESKLSH:
    """The full dimension-reduction module: H compound hashes + H sorted arrays.

    ``planes`` is the (H, M, d) tensor of :func:`~repro.lsh.projections.hyperplanes`,
    or a ``[:, :M]`` view of a longer one: the model's only copy of its
    hyperplanes, which hashes both the corpus and the queries.
    """

    def __init__(self, planes: np.ndarray):
        self.h, self.m = planes.shape[:2]
        if self.h <= 0:
            raise ValueError("H must be positive")
        self.planes = planes
        self.arrays: list[SortedKeyArray] = []

    def fit(self, x: np.ndarray) -> "ESKLSH":
        """Hash the corpus with each compound function and sort each array.

        Ties in keys are broken by row id (stable) so builds are
        deterministic and reproducible by the Spark path.
        """
        x = np.asarray(x, dtype=np.float32)
        self.arrays = []
        for planes in self.planes:
            keys = pack_bits((x @ planes.T) > 0)
            order = np.argsort(keys, kind="stable")
            self.arrays.append(SortedKeyArray(keys[order], order, m_bits=self.m))
        return self

    def query_keys(self, q: np.ndarray) -> np.ndarray:
        """(H,) query hashkeys, one per array, in a single stacked matmul."""
        q = np.asarray(q, dtype=np.float32)
        return pack_bits((self.planes @ q) > 0)  # (H, M) bits

    def candidate_rows(self, locations: np.ndarray, r: int) -> np.ndarray:
        """Union (deduplicated) of the H expansion windows.

        Dedup via a boolean hit-mask over the corpus rows — O(n + H·R)
        without the sort a ``np.unique`` would pay; output is ascending
        (same contract as np.unique).
        """
        if not self.arrays:
            return np.empty(0, np.int64)
        n = len(self.arrays[0])
        mask = np.zeros(n, dtype=bool)
        for arr, loc in zip(self.arrays, locations):
            start, end = expansion_window(int(loc), r, len(arr))
            mask[arr.rows[start:end]] = True
        return np.flatnonzero(mask)

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self.arrays) + self.planes.nbytes
