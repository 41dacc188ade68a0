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


def expansion_window(loc, r: int, length):
    """[start, end) of the bi-directional expansion range, elementwise over
    broadcast ``loc`` and ``length``.

    Centered on ``loc``, total width ``r``, shifted (not shrunk) at array
    boundaries so the candidate budget is spent whenever the array allows.
    """
    width = np.minimum(max(1, r), length)
    start = np.clip(np.asarray(loc) - width // 2, 0, np.asarray(length) - width)
    return start, start + width


def query_keys(planes: np.ndarray, q: np.ndarray, shift) -> np.ndarray:
    """Hashkeys of ``q`` under the first ``M − shift`` rows of each (M, d)
    slice of ``planes``: one product at the full length M, then a right
    shift. Keys pack MSB-first, so dropping the last bits of the long key is
    the key of the ``[:, :M − shift]`` view. ``shift`` (uint64) may be an
    array, e.g. (c0, 1) for one key length per cluster → (c0, H) keys."""
    return pack_bits((planes @ q) > 0) >> shift


def window_union(
    rows: np.ndarray, offsets: np.ndarray, sizes: np.ndarray, locs: np.ndarray, r: int
) -> list[np.ndarray]:
    """Per cluster, the ascending union of its H expansion windows.

    ``rows`` is flat: each cluster's (H, size) sorted-row block, back to back
    from position H·offset. ``locs`` is (clusters, H); every size must be
    positive. All windows are gathered by one ``np.take`` (clipped to each
    cluster's width, repeating its last row), then deduplicated by one
    boolean hit-mask over the clusters' rows, O(Σ size + H·R) without the
    sort a ``np.unique`` would pay.
    """
    h = locs.shape[-1]
    start, end = expansion_window(locs, r, sizes[:, None])
    width = end[:, :1] - start[:, :1]  # (clusters, 1): equal across the H arrays
    steps = np.minimum(np.arange(width.max()), width - 1)[:, None, :]
    block = h * offsets[:, None] + np.arange(h) * sizes[:, None]
    local = np.take(rows, (block + start)[:, :, None] + steps)
    base = np.cumsum(sizes) - sizes  # each cluster's first slot in the mask
    mask = np.zeros(int(sizes.sum()), dtype=bool)
    mask[(local + base[:, None, None]).ravel()] = True
    return [np.flatnonzero(mask[b:b + n]) for b, n in zip(base.tolist(), sizes.tolist())]


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
        self.keys = np.asarray(self.keys, dtype=key_storage_dtype(self.m_bits))
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

    ``planes`` is an (H, M', d) tensor of :func:`~repro.lsh.projections.hyperplanes`;
    the model's hashkeys are its first ``m ≤ M'`` bits (all by default), so
    one index-wide tensor serves models of every key length. The H sorted
    arrays are held as one (H, L) ``keys`` and one (H, L) ``rows`` array;
    ``arrays`` views them per array. Given only ``rows`` (e.g. a view of a
    LIDER layout) and the hashed vectors ``x``, keys are derived when read.
    """

    def __init__(self, planes: np.ndarray, m: int | None = None):
        self.h = planes.shape[0]
        if self.h <= 0:
            raise ValueError("H must be positive")
        self.hash_planes = planes
        self.m = planes.shape[1] if m is None else m
        self.x: np.ndarray | None = None  # (L, d) rows to derive keys from, if not fitted
        self._keys: np.ndarray | None = None
        self.rows: np.ndarray | None = None  # (H, L) int32 rows, each array in key order

    @property
    def planes(self) -> np.ndarray:
        """The (H, m, d) view this model's keys are hashed with."""
        return self.hash_planes[:, : self.m]

    @property
    def shift(self) -> np.uint64:
        """Bits a key at the tensor's full length loses to be this model's."""
        return np.uint64(self.hash_planes.shape[1] - self.m)

    @property
    def keys(self) -> np.ndarray | None:
        """(H, L) sorted hashkeys: kept by :meth:`fit`, or derived once from
        ``x`` and ``rows`` by the same :meth:`hash` step (bit for bit)."""
        if self._keys is None and self.x is not None:
            keys = [self.hash(self.x, h)[rows] for h, rows in enumerate(self.rows)]
            self._keys = np.stack(keys).astype(key_storage_dtype(self.m))
        return self._keys

    @property
    def arrays(self) -> list[SortedKeyArray]:
        if self.keys is None:
            return []
        return [SortedKeyArray(k, r, m_bits=self.m) for k, r in zip(self.keys, self.rows)]

    def hash(self, x: np.ndarray, h: int) -> np.ndarray:
        """(n,) hashkeys of the float32 rows ``x`` under array h's compound hash."""
        return pack_bits((x @ self.planes[h].T) > 0)

    def fit(self, x: np.ndarray) -> "ESKLSH":
        """Hash the corpus with each compound function and sort each array.

        Ties in keys are broken by row id (stable) so builds are
        deterministic and reproducible by the Spark path.
        """
        x = np.asarray(x, dtype=np.float32)
        self._keys = np.empty((self.h, x.shape[0]), dtype=key_storage_dtype(self.m))
        self.rows = np.empty((self.h, x.shape[0]), dtype=np.int32)
        for h in range(self.h):
            keys = self.hash(x, h)
            self.rows[h] = np.argsort(keys, kind="stable")
            self._keys[h] = keys[self.rows[h]]
        return self

    def query_keys(self, q: np.ndarray) -> np.ndarray:
        """(H,) query hashkeys, one per array (see :func:`query_keys`)."""
        return query_keys(self.hash_planes, np.asarray(q, dtype=np.float32), self.shift)

    def candidate_rows(self, locations: np.ndarray, r: int) -> np.ndarray:
        """Union (deduplicated, ascending) of the H expansion windows: the
        one-cluster case of :func:`window_union`."""
        if self.rows is None:
            return np.empty(0, np.int64)
        length = np.array([self.rows.shape[1]])
        return window_union(self.rows.ravel(), np.zeros(1, np.int64), length,
                            np.asarray(locations)[None], r)[0]

    @property
    def nbytes(self) -> int:
        if self.keys is None:
            return self.planes.nbytes
        return self.keys.nbytes + self.rows.nbytes + self.planes.nbytes
