"""ESK-LSH: SortingKeys-LSH extended to cosine similarity (paper §4)."""
from repro.lsh.hashkeys import (  # noqa: F401
    pack_bits,
    unpack_bits,
    key_length_check,
    kl_dist,
    kd_extended,
    kd_original,
    dist_extended,
    dist_original,
)
from repro.lsh.projections import hyperplanes  # noqa: F401
from repro.lsh.esklsh import ESKLSH, SortedKeyArray, expansion_window  # noqa: F401
