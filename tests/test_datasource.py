"""Tests for the "lider" Python DataSource: partition pruning by the exact
centroid scan, cluster_id filter pushdown, and result equality with the
in-memory index."""
import json
import os

import numpy as np
import pytest

from repro.core.lider import LIDER, LIDERConfig
from repro.oracle import assert_equivalent
from repro.datasource import register_lider_source, save_lider_index
from repro.datasource.lider_source import ARRAYS, FORMAT_VERSION, LiderReader, ann_search_df
from pyspark.sql.datasource import EqualTo, GreaterThan, In


@pytest.fixture(scope="module")
def saved_index(tmp_path_factory, corpus_small, clustered_small):
    cents, assign = clustered_small
    lider = LIDER(LIDERConfig(c=8, c0=4)).fit(
        corpus_small.emb, assignments=assign, centroids=cents
    )
    path = str(tmp_path_factory.mktemp("lider_idx"))
    save_lider_index(lider, path)
    return path, lider


@pytest.fixture(scope="module")
def spark_registered(spark):
    register_lider_source(spark)
    return spark


class TestLayout:
    def test_files_written(self, saved_index):
        path, lider = saved_index
        idx_dir = os.path.join(path, "index")
        # The manifest and one .npy per array: no pickles.
        names = "centroids planes ids offsets sizes shifts rows roots children".split()
        assert set(os.listdir(idx_dir)) == {"meta.json"} | {f"{n}.npy" for n in names}
        centroids = np.load(os.path.join(idx_dir, "centroids.npy"), allow_pickle=False)
        assert np.array_equal(centroids, lider.centroids)
        for j in lider.in_cluster:
            assert os.path.isdir(os.path.join(path, "embeddings", f"cluster_id={j}"))

    def test_pickles_are_embedding_free(self, saved_index):
        """Every index file is the manifest or an array that loads without
        pickle, and none holds the embeddings."""
        path, lider = saved_index
        idx_dir = os.path.join(path, "index")
        n, d = lider.emb.shape
        total = 0
        for name in os.listdir(idx_dir):
            if name == "meta.json":
                continue
            a = np.load(os.path.join(idx_dir, name), allow_pickle=False)
            assert a.dtype != object
            assert not (a.dtype.kind == "f" and a.shape[0] == n)  # no (n, …) float rows
            total += a.nbytes
        assert total < lider.emb.nbytes

    def test_cluster_pickle_holds_only_its_slice(self, saved_index):
        """The saved arrays are the in-memory layout's, dtype included."""
        path, lider = saved_index
        for name in ARRAYS:
            got = np.load(os.path.join(path, "index", f"{name}.npy"), allow_pickle=False)
            want = getattr(lider, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name


def _clusters(parts):
    """The cluster ids the planned partitions carry, in plan order."""
    return [j for p in parts for j in p.value[0]]


class TestReaderPlanning:
    def _reader(self, path, query=None, **kw):
        opts = {"path": path, **kw}
        if query is not None:
            opts["query"] = json.dumps([float(x) for x in query])
        return LiderReader(opts)

    def test_full_scan_plans_all_clusters(self, saved_index):
        path, lider = saved_index
        parts = self._reader(path).partitions()
        assert len(parts) == len(lider.in_cluster)  # one per cluster: full scans stay parallel
        assert sorted(_clusters(parts)) == sorted(lider.in_cluster)

    def test_query_plans_c0_partitions(self, saved_index, queries_small):
        path, lider = saved_index
        parts = self._reader(path, query=queries_small.emb[0]).partitions()
        _, c0 = lider.config.resolve(lider.assignments.shape[0])
        assert len(_clusters(parts)) == c0

    def test_query_plans_one_partition(self, saved_index, queries_small):
        path, _ = saved_index
        parts = self._reader(path, query=queries_small.emb[0], k=7).partitions()
        assert len(parts) == 1
        assert parts[0].value[1] == 7

    def test_query_partitions_are_cr_choice(self, saved_index, queries_small):
        path, lider = saved_index
        q = queries_small.emb[1]
        parts = self._reader(path, query=q).partitions()
        expect, _ = lider.centroid_retriever.search(q, km=4)
        assert _clusters(parts) == [int(j) for j in expect]

    def test_c0_option_overrides(self, saved_index, queries_small):
        path, _ = saved_index
        parts = self._reader(path, query=queries_small.emb[0], c0=2).partitions()
        assert len(_clusters(parts)) == 2

    def test_pushed_equalto_prunes(self, saved_index):
        path, _ = saved_index
        r = self._reader(path)
        leftover = list(r.pushFilters([EqualTo(("cluster_id",), 3)]))
        assert leftover == []
        assert _clusters(r.partitions()) == [3]

    def test_pushed_in_prunes(self, saved_index):
        path, _ = saved_index
        r = self._reader(path)
        list(r.pushFilters([In(("cluster_id",), (1, 2))]))
        assert set(_clusters(r.partitions())) == {1, 2}

    def test_pushed_equalto_and_in_intersect(self, saved_index):
        path, _ = saved_index
        r = self._reader(path)
        leftover = list(r.pushFilters([EqualTo(("cluster_id",), 3), In(("cluster_id",), (3, 5))]))
        assert leftover == []
        assert _clusters(r.partitions()) == [3]

    def test_full_scan_reads_only_ids(self, saved_index, queries_small, tmp_path):
        """A full scan needs ``ids``, ``offsets`` and ``sizes`` only: it reads
        the whole corpus from a copy without the search arrays, where a
        query read fails."""
        import shutil

        path, lider = saved_index
        copy = str(tmp_path / "idx")
        shutil.copytree(path, copy)
        for name in ("rows", "planes", "children"):
            os.remove(os.path.join(copy, "index", f"{name}.npy"))
        r = self._reader(copy)
        rows = [row for p in r.partitions() for row in r.read(p)]
        assert sorted(row[0] for row in rows) == sorted(lider.ids.tolist())
        assert all(row[1] == lider.assignments[row[0]] for row in rows)
        r = self._reader(copy, query=queries_small.emb[0])
        (part,) = r.partitions()
        with pytest.raises(FileNotFoundError):
            list(r.read(part))

    def test_read_none_yields_nothing(self, saved_index):
        """Spark reads ``None`` when ``partitions()`` plans nothing."""
        path, _ = saved_index
        r = self._reader(path)
        list(r.pushFilters([EqualTo(("cluster_id",), 999)]))
        assert r.partitions() == []
        assert list(r.read(None)) == []

    def test_read_needs_only_the_partition(self, saved_index, queries_small):
        """Spark pickles the reader before planning: a copy made then reads
        the same rows from the planned partition, default ``k`` included."""
        import pickle

        path, _ = saved_index
        r = self._reader(path, query=queries_small.emb[3])
        shipped = pickle.loads(pickle.dumps(r))
        (part,) = r.partitions()
        rows = list(shipped.read(part))
        assert part.value[1] == 100  # meta.json's default_k, resolved at planning
        assert rows == list(r.read(part))
        assert [row[1] for row in rows if row[3] == 0] == list(part.value[0])

    @pytest.mark.parametrize("k", [0, -5])
    def test_k_below_one_raises(self, saved_index, queries_small, k):
        path, _ = saved_index
        with pytest.raises(ValueError, match="option k must be at least 1"):
            self._reader(path, query=queries_small.emb[0], k=k).partitions()

    @pytest.mark.parametrize("c0", [0, -2])
    def test_c0_below_one_raises(self, saved_index, queries_small, c0):
        path, _ = saved_index
        with pytest.raises(ValueError, match="option c0 must be at least 1"):
            self._reader(path, query=queries_small.emb[0], c0=c0).partitions()

    @pytest.mark.parametrize("k", [20, 100])
    def test_read_equals_cluster_searches(self, saved_index, queries_small, monkeypatch, k):
        """Drained without Spark, ``read`` yields each probed cluster's
        in-memory ``CoreModel.search`` top-k, ids and scores exactly. It
        builds no core model and runs ``LIDER.search_clusters``, the pass
        ``LIDER.search`` merges. At k=100 the r0·k windows are clipped to
        the clusters, so window widths differ across probed clusters."""
        from repro.core.core_model import CoreModel

        path, lider = saved_index
        calls = []
        search_clusters = LIDER.search_clusters

        def spy(self, *args):
            calls.append(args[1])
            return search_clusters(self, *args)

        def no_core_model(self, config):
            raise AssertionError("read built a CoreModel")

        views = dict(lider.in_cluster)  # the in-memory references, made before the spy
        monkeypatch.setattr(LIDER, "search_clusters", spy)
        monkeypatch.setattr(CoreModel, "__init__", no_core_model)
        r, mixed_widths = lider.config.r0 * k, 0
        for q in queries_small.emb[:10]:
            (part,) = self._reader(path, query=q, k=k).partitions()
            rows = list(self._reader(path, query=q).read(part))
            clusters = list(part.value[0])
            assert [int(j) for j in calls.pop()] == clusters
            for j in clusters:
                ids, scores = views[j].search(q, km=k)
                got = [row for row in rows if row[1] == j]
                assert [row[3] for row in got] == list(range(ids.size))
                assert np.array_equal([row[0] for row in got], ids)
                assert np.array_equal(np.float32([row[2] for row in got]), scores)
            mixed_widths += np.unique(np.minimum(r, lider.sizes[clusters])).size > 1
        assert (mixed_widths > 0) == (k == 100)

    @pytest.mark.parametrize("version", [FORMAT_VERSION + 1, None], ids=["bumped", "missing"])
    def test_manifest_version_raises(self, saved_index, tmp_path, version):
        """An index saved in another format (e.g. before the manifest had a
        version) is rejected, not misread."""
        import shutil

        path, _ = saved_index
        copy = str(tmp_path / "idx")
        shutil.copytree(path, copy)
        meta_path = os.path.join(copy, "index", "meta.json")
        with open(meta_path) as f:
            meta = json.load(f)
        meta.pop("version")
        if version is not None:
            meta["version"] = version
        with open(meta_path, "w") as f:
            json.dump(meta, f)
        with pytest.raises(ValueError, match="format version"):
            self._reader(copy).partitions()

    def test_unsupported_filters_returned(self, saved_index):
        path, _ = saved_index
        r = self._reader(path)
        f = GreaterThan(("score",), 0.5)
        assert list(r.pushFilters([f])) == [f]

    def test_missing_path_raises(self):
        with pytest.raises(ValueError):
            LiderReader({})

    def test_wrong_dimension_query_raises(self, saved_index, queries_small):
        path, _ = saved_index
        with pytest.raises(ValueError, match="shape"):
            self._reader(path, query=queries_small.emb[0][:-1]).partitions()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_query_raises(self, saved_index, queries_small, bad):
        path, _ = saved_index
        q = queries_small.emb[0].copy()
        q[5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            self._reader(path, query=q).partitions()

    def test_non_unit_query_raises(self, saved_index, queries_small):
        path, _ = saved_index
        with pytest.raises(ValueError, match="norm"):
            self._reader(path, query=queries_small.emb[0] * 100).partitions()


class TestReadEnd2End:
    def test_search_matches_in_memory_lider(
        self, spark_registered, saved_index, queries_small
    ):
        path, lider = saved_index
        for q in queries_small.emb[:5]:
            got = [r["id"] for r in ann_search_df(spark_registered, path, q, k=20).collect()]
            want = [int(x) for x in lider.search(q, 20)[0]]
            assert got == want

    def test_c0_zero_raises(self, spark_registered, saved_index, queries_small):
        """``c0=0`` reaches the reader, whose ValueError Spark reports at
        planning, instead of being dropped for meta.json's default."""
        from pyspark.errors import AnalysisException

        path, _ = saved_index
        with pytest.raises(AnalysisException, match="ValueError: option c0 must be at least 1"):
            ann_search_df(spark_registered, path, queries_small.emb[0], k=5, c0=0).collect()

    def test_scores_descending(self, spark_registered, saved_index, queries_small):
        path, _ = saved_index
        rows = ann_search_df(spark_registered, path, queries_small.emb[6], k=15).collect()
        scores = [r["score"] for r in rows]
        assert scores == sorted(scores, reverse=True)

    def test_full_scan_returns_whole_corpus(self, spark_registered, saved_index, corpus_small):
        path, _ = saved_index
        df = spark_registered.read.format("lider").option("path", path).load()
        assert df.count() == corpus_small.n

    def test_filter_pushdown_count(self, spark_registered, saved_index):
        path, lider = saved_index
        df = (
            spark_registered.read.format("lider").option("path", path).load()
            .filter("cluster_id = 2")
        )
        assert df.count() == int((lider.assignments == 2).sum())

    def test_filter_pruning_every_cluster_returns_nothing(self, spark_registered, saved_index):
        path, _ = saved_index
        df = spark_registered.read.format("lider").option("path", path).load()
        assert df.where("cluster_id = 999").collect() == []

    def test_rows_and_merge_match_duckdb_oracle(
        self, spark_registered, saved_index, queries_small
    ):
        """The query's rows are exactly each probed cluster's in-memory
        top-k, and ``ann_search_df`` is DuckDB's sort-limit over them."""
        import pandas as pd

        path, lider = saved_index
        q, k = queries_small.emb[2], 20
        probed, _ = lider.centroid_retriever.search(q, km=4)
        rows = []
        for j in probed:
            ids, scores = lider.in_cluster[int(j)].search(q, km=k)
            rows += [(int(i), int(j), float(s), r) for r, (i, s) in enumerate(zip(ids, scores))]
        expected = pd.DataFrame(rows, columns=["id", "cluster_id", "score", "rank"])
        loaded = (
            spark_registered.read.format("lider").option("path", path)
            .option("query", json.dumps([float(x) for x in q])).option("k", k).load()
        )
        assert_equivalent(loaded, "SELECT * FROM expected", expected=expected)
        assert_equivalent(
            ann_search_df(spark_registered, path, q, k=k),
            f"SELECT * FROM expected ORDER BY score DESC LIMIT {k}",
            expected=expected,
        )

    def test_schema(self, spark_registered, saved_index):
        path, _ = saved_index
        df = spark_registered.read.format("lider").option("path", path).load()
        assert [f.name for f in df.schema.fields] == ["id", "cluster_id", "score", "rank"]
