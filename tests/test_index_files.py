"""Tests for the on-disk embedding files of a saved LIDER index, read back
without Spark: row alignment to a retriever's ids and missing ids."""
import numpy as np
import pytest

from repro.datasource import save_lider_index
from repro.datasource.lider_source import _load_cluster_embeddings


@pytest.fixture(scope="module")
def saved(tmp_path_factory, lider_small):
    path = str(tmp_path_factory.mktemp("lider_files"))
    save_lider_index(lider_small, path)
    return path, lider_small


class TestClusterEmbeddings:
    def test_rows_align_to_requested_ids(self, saved):
        path, lider = saved
        j, cm = next(iter(lider.in_cluster.items()))
        perm = np.random.default_rng(0).permutation(cm.n)
        got = _load_cluster_embeddings(path, j, cm.ids[perm])
        assert got.dtype == np.float32
        assert np.array_equal(got, cm.emb[perm])

    def test_missing_id_raises(self, saved):
        path, lider = saved
        j, cm = next(iter(lider.in_cluster.items()))
        ids = cm.ids.copy()
        ids[3] = ids.max() + 1
        with pytest.raises(ValueError, match="missing"):
            _load_cluster_embeddings(path, j, ids)
