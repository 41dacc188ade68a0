"""Tests for the files of a saved LIDER index, read back without Spark:
``emb.npy`` holds the corpus in layout order, and planning rejects an
array whose byte length differs from the manifest before reading it."""
import json
import os
import shutil

import numpy as np
import pytest

from repro.core.lider import LIDER, LIDERConfig
from repro.datasource import save_lider_index
from repro.datasource.lider_source import ARRAYS, LiderReader, _load


@pytest.fixture(scope="module")
def saved(tmp_path_factory, lider_small):
    path = str(tmp_path_factory.mktemp("lider_files"))
    save_lider_index(lider_small, path)
    return path, lider_small


def _copy(path: str, tmp_path) -> str:
    copy = str(tmp_path / "idx")
    shutil.copytree(path, copy)
    return copy


def _reader(path: str, query=None) -> LiderReader:
    opts = {"path": path}
    if query is not None:
        opts["query"] = json.dumps([float(x) for x in query])
    return LiderReader(opts)


class TestSavedArrays:
    def test_emb_holds_each_cluster_slice(self, saved):
        """Each cluster's slice of the saved ``emb.npy`` is its rows of the
        in-memory layout, as float32."""
        path, lider = saved
        emb = np.load(os.path.join(path, "index", "emb.npy"), allow_pickle=False)
        assert emb.dtype == np.float32
        for j in lider.in_cluster:
            assert np.array_equal(emb[lider.part(j)], lider.emb[lider.part(j)])

    def test_missing_id_raises(self, saved, queries_small, tmp_path):
        """An ``ids.npy`` with one id dropped is rejected at planning, for a
        query and for a full scan."""
        path, _ = saved
        copy = _copy(path, tmp_path)
        file = os.path.join(copy, "index", "ids.npy")
        np.save(file, np.load(file)[:-1])
        for query in (queries_small.emb[0], None):
            with pytest.raises(ValueError, match="byte length of ids differs"):
                _reader(copy, query).partitions()

    def test_truncated_rows_raise(self, saved, queries_small, tmp_path):
        """A truncated ``rows.npy`` fails a query's planning; a full scan,
        which does not load it, still plans."""
        path, lider = saved
        copy = _copy(path, tmp_path)
        file = os.path.join(copy, "index", "rows.npy")
        with open(file, "r+b") as f:
            f.truncate(os.path.getsize(file) - 4)
        with pytest.raises(ValueError, match="byte length of rows differs"):
            _reader(copy, queries_small.emb[0]).partitions()
        assert len(_reader(copy).partitions()) == len(lider.in_cluster)

    def test_swapped_arrays_raise(self, saved, queries_small, tmp_path):
        """``ids.npy`` and ``rows.npy`` with their contents swapped are
        rejected at planning."""
        path, _ = saved
        copy = _copy(path, tmp_path)
        ids, rows = (os.path.join(copy, "index", f"{n}.npy") for n in ("ids", "rows"))
        os.rename(ids, ids + ".tmp")
        os.rename(rows, ids)
        os.rename(ids + ".tmp", rows)
        with pytest.raises(ValueError, match="byte length of ids, rows differs"):
            _reader(copy, queries_small.emb[0]).partitions()

    def test_arrays_load_memory_mapped(self, saved):
        """Every array loads memory-mapped and read-only, equal to the
        in-memory layout's."""
        path, lider = saved
        for name, array in zip(ARRAYS, _load(path, *ARRAYS)):
            assert isinstance(array, np.memmap) and not array.flags.writeable, name
            assert np.array_equal(array, getattr(lider, name)), name


def test_resave_leaves_no_stale_files(tmp_path, corpus_small, lider_small):
    """Saving a 4-cluster index over an 8-cluster one whose directory still
    has a format-1 ``embeddings/`` tree leaves only ``index/`` and the
    user's own file."""
    path = str(tmp_path)
    with open(tmp_path / "notes.txt", "w") as f:
        f.write("kept")
    save_lider_index(lider_small, path)
    for j in lider_small.in_cluster:  # a format-1 save's per-cluster Parquet
        os.makedirs(tmp_path / "embeddings" / f"cluster_id={j}")
        (tmp_path / "embeddings" / f"cluster_id={j}" / "part-0.parquet").write_bytes(b"PAR1")
    four = LIDER(LIDERConfig(c=4, c0=2)).fit(corpus_small.emb)
    save_lider_index(four, path)
    assert set(os.listdir(path)) == {"index", "notes.txt"}
    assert set(os.listdir(os.path.join(path, "index"))) == {"meta.json"} | {
        f"{n}.npy" for n in ARRAYS
    }
    assert (tmp_path / "notes.txt").read_text() == "kept"
