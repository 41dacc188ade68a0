"""Tests for the on-disk embedding files of a saved LIDER index, read back
without Spark: each cluster's Parquet holds its slice of the layout, in
layout order, and a file whose ids differ from ``ids.npy`` is rejected."""
import os
import shutil

import numpy as np
import pyarrow.parquet as pq
import pytest

from repro.core.lider import LIDER, LIDERConfig
from repro.datasource import save_lider_index
from repro.datasource.lider_source import ARRAYS, _load_cluster_embeddings


@pytest.fixture(scope="module")
def saved(tmp_path_factory, lider_small):
    path = str(tmp_path_factory.mktemp("lider_files"))
    save_lider_index(lider_small, path)
    return path, lider_small


def _saved_ids(path: str, lider, j: int) -> np.ndarray:
    ids = np.load(os.path.join(path, "index", "ids.npy"), allow_pickle=False)
    return ids[lider.part(j)]


class TestClusterEmbeddings:
    def test_rows_align_to_requested_ids(self, saved):
        path, lider = saved
        for j in lider.in_cluster:
            got = _load_cluster_embeddings(path, j, _saved_ids(path, lider, j))
            assert got.dtype == np.float32
            assert np.array_equal(got, lider.emb[lider.part(j)])

    def test_missing_id_raises(self, saved, tmp_path):
        """A cluster's Parquet whose ids differ from its ``ids.npy`` slice
        (a changed id, or the same ids in another order) raises."""
        path, lider = saved
        j = next(iter(lider.in_cluster))
        copy = str(tmp_path / "idx")
        shutil.copytree(path, copy)
        file = os.path.join(copy, "embeddings", f"cluster_id={j}", "part-0.parquet")
        table = pq.read_table(file)
        ids = _saved_ids(copy, lider, j)
        changed = ids.copy()
        changed[3] = ids.max() + 1
        for bad in (table.set_column(0, "id", [changed]), table.take(np.arange(len(ids))[::-1])):
            pq.write_table(bad, file)
            with pytest.raises(ValueError, match="differ from ids.npy"):
                _load_cluster_embeddings(copy, j, ids)


def test_resave_leaves_no_stale_files(tmp_path, corpus_small, lider_small):
    """Saving a 4-cluster index over an 8-cluster one removes the old
    clusters' files, and only the trees the format owns."""
    path = str(tmp_path)
    with open(tmp_path / "notes.txt", "w") as f:
        f.write("kept")
    save_lider_index(lider_small, path)
    four = LIDER(LIDERConfig(c=4, c0=2)).fit(corpus_small.emb)
    save_lider_index(four, path)
    assert set(os.listdir(os.path.join(path, "embeddings"))) == {
        f"cluster_id={j}" for j in four.in_cluster
    }
    assert set(os.listdir(os.path.join(path, "index"))) == {"meta.json"} | {
        f"{n}.npy" for n in ARRAYS
    }
    assert (tmp_path / "notes.txt").read_text() == "kept"
