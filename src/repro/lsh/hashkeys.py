"""Binary hashkey representation and the (extended) hashkey distances of §4.2.

A hashkey is the output of a compound LSH function G = (h_1..h_M) with
hyperplane random-projection hashes, i.e. an M-bit binary string. We pack
it MSB-first into a uint64, under which *numeric order equals the SK-LSH
linear order* (element-wise comparison from the most significant element —
for binary alphabets, plain lexicographic order; §4.2 "the order is
actually a dictionary order"). M is capped at 50 bits so decimal values
stay exactly representable in float64 for the key re-scaling module.

Distances (K1, K2 of equal length M):

* ``KL`` — non-prefix length: M minus the common-prefix length.
* ``KD`` (original, Eq. 5) — |first differing elements|; for binary keys
  this is identically 1 when keys differ — the "low resolution problem".
* ``KD_e`` (extended, Eq. 6) — |Decimal(K1[l+1 : l+1+B]) −
  Decimal(K2[l+1 : l+1+B])|, the B-bit windows right after the common
  prefix. When fewer than B bits remain the window shrinks to what is left.
* ``dist_e = KL + KD_e / 2^B`` (Eq. 7) and ``dist = KL + KD / C``(Eq. 4).

All operations are vectorised over numpy arrays of packed keys.
"""
from __future__ import annotations

import numpy as np

MAX_BITS = 50


def key_length_check(m: int) -> int:
    """Validate a hashkey length; returns it (1..MAX_BITS)."""
    if not 1 <= m <= MAX_BITS:
        raise ValueError(f"hashkey length must be in [1, {MAX_BITS}], got {m}")
    return m


def hashkey_bits(n: int, pad: int = 0) -> int:
    """Hashkey length for ``n`` vectors: ⌈log2 n⌉ + ``pad`` bits (§5.1:
    long enough to avoid duplicate keys), at least 4 and at most
    ``MAX_BITS``. ⌈log2 n⌉ is taken in integers, as ``(n − 1).bit_length()``."""
    return min(MAX_BITS, max(4, (max(int(n), 2) - 1).bit_length() + pad))


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a (n, M) boolean/0-1 array into (n,) uint64 keys, MSB-first.

    ``np.packbits`` packs each row MSB-first into ceil(M/8) bytes, padded
    with zero bits on the right; those bytes are the low bytes of a
    big-endian uint64, and a right shift drops the padding."""
    bits = np.asarray(bits)
    if bits.ndim != 2:
        raise ValueError("bits must be 2-D (n, M)")
    m = key_length_check(bits.shape[1])
    packed = np.packbits(bits, axis=1)
    nb = packed.shape[1]
    word = np.zeros((bits.shape[0], 8), dtype=np.uint8)
    word[:, 8 - nb:] = packed
    return word.view(">u8")[:, 0].astype(np.uint64) >> np.uint64(8 * nb - m)


def unpack_bits(keys: np.ndarray, m: int) -> np.ndarray:
    """Inverse of :func:`pack_bits` — (n,) uint64 → (n, M) uint8 bits."""
    key_length_check(m)
    keys = np.asarray(keys, dtype=np.uint64)
    shifts = np.arange(m - 1, -1, -1, dtype=np.uint64)
    return ((keys[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.uint8)


def _bit_length(x: np.ndarray) -> np.ndarray:
    """Per-element bit length of uint64 values (0 for 0).

    Pure integer shifts — exact everywhere (float64 log2 rounds values just
    below a power of two, e.g. 2^50 − 1, to the power itself).
    """
    v = np.asarray(x, dtype=np.uint64).copy()
    out = np.zeros(v.shape, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        ge = v >= (np.uint64(1) << np.uint64(shift))
        out[ge] += shift
        v[ge] >>= np.uint64(shift)
    out += (v > 0).astype(np.int64)
    return out


def kl_dist(k1: np.ndarray, k2: np.ndarray, m: int) -> np.ndarray:
    """Non-prefix length KL(K1,K2): M - common_prefix_length. 0 iff equal."""
    key_length_check(m)
    x = np.asarray(k1, dtype=np.uint64) ^ np.asarray(k2, dtype=np.uint64)
    return _bit_length(x)


def kd_original(k1: np.ndarray, k2: np.ndarray, m: int) -> np.ndarray:
    """Original KD (Eq. 5): |first non-identical elements| — for binary
    alphabets identically 1 whenever the keys differ, else 0."""
    kl = kl_dist(k1, k2, m)
    return (kl > 0).astype(np.int64)


def _window_after_prefix(keys: np.ndarray, kl: np.ndarray, m: int, b: int) -> np.ndarray:
    """Decimal value of the B-bit window starting right after the common prefix.

    ``kl`` is KL(K1,K2) (shared by both keys); prefix length l = m - kl.
    Window covers bit positions l .. l+B-1 (0-indexed from the MSB),
    truncated at the end of the key.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    prefix_len = m - kl
    shift = np.maximum(m - prefix_len - b, 0).astype(np.uint64)
    width = np.minimum(b, m - prefix_len).astype(np.uint64)
    mask = (np.uint64(1) << width) - np.uint64(1)
    return (keys >> shift) & mask


def kd_extended(k1: np.ndarray, k2: np.ndarray, m: int, b: int) -> np.ndarray:
    """Extended KD_e (Eq. 6): |Decimal(B-bit window of K1) − same of K2|."""
    key_length_check(m)
    if not 1 <= b <= m:
        raise ValueError(f"B must be in [1, {m}], got {b}")
    kl = kl_dist(k1, k2, m)
    w1 = _window_after_prefix(k1, kl, m, b).astype(np.int64)
    w2 = _window_after_prefix(k2, kl, m, b).astype(np.int64)
    out = np.abs(w1 - w2)
    return np.where(kl == 0, 0, out)


def dist_extended(k1: np.ndarray, k2: np.ndarray, m: int, b: int = 3) -> np.ndarray:
    """Extended hashkey distance dist_e = KL + KD_e / 2^B (Eq. 7)."""
    kl = kl_dist(k1, k2, m)
    kd = kd_extended(k1, k2, m, b)
    return kl.astype(np.float64) + kd.astype(np.float64) / float(2**b)


def dist_original(k1: np.ndarray, k2: np.ndarray, m: int, c: float = 2.0) -> np.ndarray:
    """Original SK-LSH distance dist = KL + KD / C (Eq. 4). C > max(KD)=1."""
    if c <= 1.0:
        raise ValueError("C must exceed the maximum KD (1 for binary keys)")
    kl = kl_dist(k1, k2, m)
    kd = kd_original(k1, k2, m)
    return kl.astype(np.float64) + kd.astype(np.float64) / float(c)
