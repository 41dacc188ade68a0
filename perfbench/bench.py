"""Workload drivers. The program is used as a library: only its public
calls are timed, and nothing in ``src/`` is switched or instrumented.

Untraced run (``--trace 0``): build ``Workload.setups`` times (median is
``setup_s``), warm up, then a closed loop with one client thread for the
given seconds on the serving path, then check every result.

Traced run (``--trace 1``): the build split into its stages, the query
path recomposed from the public calls of each layer inside spans
(checked to return the same ids as ``LIDER.search``), and the DataSource
reader's planning and reads on the saved index.
"""
from __future__ import annotations

import ctypes
import gc
import json
import os
import re
import shlex
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from pyspark import SparkContext
from pyspark.sql import SparkSession

from checks import Tally, check_topk, exact_topk, recall, same_answer
from spec import K, Workload
from tracing import Tracer

from repro.core.core_model import CoreModel, CoreModelConfig
from repro.core.kmeans import spherical_kmeans
from repro.core.lider import CENTROID_GROUP, LIDER, LIDERConfig
from repro.core.spark_build import build_lider_spark, cluster_with_spark_kmeans
from repro.datasource.lider_source import (
    LiderReader, ann_search_df, register_lider_source, save_lider_index,
)
from repro.embeddings.corpus import EmbeddingCorpus, make_corpus
from repro.embeddings.datasets import FAMILIES, corpus_to_spark, dev_queries
from repro.metrics import mrr_at_k

WARMUP_QUERIES = 200  # in-memory: a first pass, untimed, touches every cluster
WARMUP_DS_QUERIES = 1  # Spark: the first DataSource query in a JVM takes ~3x longer
RECALL_QUERIES = 500  # queries with a brute-force top-100, computed untimed
TRACE_QUERIES = 300
TRACE_DS_QUERIES = 4


# ----------------------------------------------------------------- inputs
def make_inputs(w: Workload, seed: int):
    """Corpus, queries and relevance from ``seed`` alone.

    The corpus is the first ``w.n`` vectors of an MSL-family master of
    ``w.master_n`` vectors; seed 7 gives the repository's MSL-* datasets.
    Queries are dev-style (MRR@10), generated as ``dev_queries`` does.
    """
    f = FAMILIES["MSL"]
    master = make_corpus(
        w.master_n, dim=f.dim, n_topics=f.n_topics, seed=seed,
        topic_spread=f.topic_spread, emb_noise=f.emb_noise,
    )
    master.emb, master.semantic, master.topic = (
        master.emb[: w.n], master.semantic[: w.n], master.topic[: w.n]
    )
    qs = dev_queries(master, w.n_queries, seed=seed + 10)
    return np.ascontiguousarray(master.emb), qs.emb, qs.relevant


def lider_config(w: Workload) -> LIDERConfig:
    return LIDERConfig(c=w.c, c0=w.c0)


def peak_rss_reset() -> None:
    """Restart the process's peak-RSS mark, so input generation is not counted."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass  # no reset available: the peak then includes input generation


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        return int(re.search(r"VmHWM:\s+(\d+)", f.read()).group(1)) / 1024


@contextmanager
def one_blas_thread():
    """Run the block with NumPy's bundled OpenBLAS on one thread.

    Queries are timed this way: the load is one client thread, and an
    OpenBLAS pool spinning on each 64-dim product made p99 on mem-c40 swing
    from 9 to 29 ms between runs. Builds keep the default pool: pinned for
    the whole process, the threaded IR build ran 2-3x slower.
    """
    libs = list((Path(np.__file__).parent.parent / "numpy.libs").glob("libopenblas*"))
    if not libs:
        raise RuntimeError("NumPy's bundled OpenBLAS not found; cannot pin query threads")
    lib = ctypes.CDLL(str(libs[0]))
    suffix = "64_" if hasattr(lib, "openblas_get_num_threads64_") else ""
    get = getattr(lib, "openblas_get_num_threads" + suffix)
    put = getattr(lib, "openblas_set_num_threads" + suffix)
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# ------------------------------------------------------------------ spark
def start_spark(workdir: Path):
    """A local[4] session that keeps its scratch files inside ``workdir``."""
    local = workdir / "spark-local"
    tmp = workdir / "tmp"
    local.mkdir(parents=True, exist_ok=True)
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        "--master local[4] --driver-memory 1g",
        "--driver-java-options", shlex.quote(f"-Djava.io.tmpdir={tmp}"),
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        "--conf", shlex.quote(f"spark.sql.warehouse.dir={workdir / 'warehouse'}"),
        "pyspark-shell",
    ])
    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "8")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    register_lider_source(spark)
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM (and its Python workers) to end."""
    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)
    SparkContext._gateway = None
    SparkContext._jvm = None


def ds_search(spark, path: str, q: np.ndarray):
    rows = ann_search_df(spark, path, q, k=K).collect()
    return (np.array([r["id"] for r in rows], np.int64),
            np.array([r["score"] for r in rows], np.float64))


# ---------------------------------------------------------------- helpers
def n_candidates(lider: LIDER, q: np.ndarray) -> int:
    """Rows LIDER.search verifies for ``q``, from the public per-layer calls."""
    _, c0 = lider.config.resolve(lider.assignments.shape[0])
    clusters, _ = lider.centroid_retriever.search(q, km=c0)
    return sum(
        lider.in_cluster[int(j)].candidate_rows(q, K).size
        for j in clusters if int(j) in lider.in_cluster
    )


def closed_loop(search, queries: np.ndarray, seconds: float):
    """One client, next query after the previous returns, for ``seconds``.

    Returns (latencies in seconds, [(query index, result or exception)], wall).
    """
    lat, results = [], []
    i = 0
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        qi = i % len(queries)
        i += 1
        t0 = time.perf_counter()
        try:
            out = search(queries[qi])
        except Exception as e:  # counted as a failed operation by the checker
            results.append((qi, e))
            continue
        lat.append(time.perf_counter() - t0)
        results.append((qi, out))
    return np.array(lat), results, time.perf_counter() - start


def one_pass(search, queries: np.ndarray) -> np.ndarray:
    """Latencies (s) of one untimed-for-metrics pass, e.g. the warm-up."""
    lat = []
    for q in queries:
        t0 = time.perf_counter()
        search(q)
        lat.append(time.perf_counter() - t0)
    return np.array(lat)


def check_results(results, lider, emb, queries, tally, first: dict, *, against_lider=False) -> None:
    """Check each result; repeats of a query must equal its first answer.

    ``first`` maps query index -> first checked (ids, scores) and is filled.
    With ``against_lider`` every result must also equal ``lider.search``.
    """
    for qi, out in results:
        if isinstance(out, Exception):
            tally.record(f"query {qi} raised {out!r}")
            continue
        ids, scores = out
        if against_lider and not same_answer(ids, scores, *lider.search(queries[qi], K)):
            tally.record(f"query {qi}: answer differs from LIDER.search on the same index")
            continue
        if qi in first:
            ok = same_answer(ids, scores, *first[qi])
            tally.record(None if ok else f"query {qi} answered differently on repeat")
            continue
        q = queries[qi]
        problem = check_topk(ids, scores, emb, q, K, lambda: n_candidates(lider, q))
        tally.record(None if problem is None else f"query {qi}: {problem}")
        first[qi] = (ids, scores)


def quality(lider, emb, queries, relevant, truth, tally, first: dict) -> dict:
    """mrr_at_10 over every query and recall_at_100 over the first
    ``RECALL_QUERIES``; queries the loop did not reach are searched here."""
    missing = [(qi, lider.search(queries[qi], K)) for qi in range(len(queries)) if qi not in first]
    check_results(missing, lider, emb, queries, tally, first)
    ranked = [first[qi][0] for qi in range(len(queries))]
    return {
        "mrr_at_10": mrr_at_k([r.tolist() for r in ranked], relevant, 10),
        "recall_at_100": recall(ranked[: truth.shape[0]], truth),
    }


def latency_metrics(lat: np.ndarray, wall: float) -> dict:
    print(f"# timed loop: {lat.size} queries in {wall:.2f} s; "
          f"p90 has {int(lat.size * 0.1)} samples beyond it", flush=True)
    return {
        "query_p50_ms": float(np.percentile(lat, 50)) * 1e3,
        "query_p90_ms": float(np.percentile(lat, 90)) * 1e3,
        "qps": lat.size / wall,
    }


# --------------------------------------------------------- untraced runs
def run_untraced(w: Workload, seed: int, seconds: float, workdir: Path) -> tuple[dict, Tally]:
    tally = Tally()
    emb, queries, relevant = make_inputs(w, seed)
    truth = exact_topk(emb, queries[:RECALL_QUERIES], K)
    spark = start_spark(workdir) if w.spark else None
    try:
        peak_rss_reset()
        setups, lider = [], None
        for r in range(w.setups):
            lider = None
            gc.collect()
            t0 = time.perf_counter()
            if spark is None:
                lider = LIDER(lider_config(w)).fit(emb)
            else:
                path = workdir / f"index{r}"
                lider = build_lider_spark(spark, emb, config=lider_config(w))
                save_lider_index(lider, str(path))
            setups.append(time.perf_counter() - t0)
            tally.record(None)
        if spark is None:
            search, n_warm = (lambda q: lider.search(q, K)), WARMUP_QUERIES
        else:
            search, n_warm = (lambda q: ds_search(spark, str(path), q)), WARMUP_DS_QUERIES
        with one_blas_thread():
            warm_lat = one_pass(search, queries[:n_warm])
            lat, results, wall = closed_loop(search, queries, seconds)
        print(f"# warm-up: {warm_lat.size} queries, p50 {np.median(warm_lat) * 1e3:.3f} ms "
              f"(untimed); setup_s samples {[round(s, 3) for s in setups]}", flush=True)
        metrics = latency_metrics(lat, wall)
        first: dict = {}
        # Each DataSource answer must also equal LIDER.search on the same index.
        check_results(results, lider, emb, queries, tally, first, against_lider=spark is not None)
        metrics.update(quality(lider, emb, queries, relevant, truth, tally, first))
        metrics["setup_s"] = float(np.median(setups))
        metrics["index_bytes"] = lider.memory_footprint()
        metrics["peak_rss_mb"] = peak_rss_mb()
    finally:
        if spark is not None:
            stop_spark(spark)
    return metrics, tally


# ------------------------------------------------------------ traced runs
def merge_topk(parts, k: int) -> np.ndarray:
    """Top-k ids over per-cluster (ids, scores) parts, as LIDER.search merges."""
    if not parts:
        return np.empty(0, np.int64)
    ids = np.concatenate([p[0] for p in parts])
    scores = np.concatenate([p[1] for p in parts])
    kk = min(k, ids.size)
    if kk == 0:
        return ids
    top = np.argpartition(-scores, kk - 1)[:kk]
    return ids[top[np.argsort(-scores[top])]]


def traced_queries(lider: LIDER, queries: np.ndarray, seconds: float, tracer: Tracer, tally: Tally) -> dict:
    """The query path recomposed from each layer's public calls, in spans.

    Per query: LIDER.search (reference), the centroids retriever, then per
    probed cluster predict_locations, candidate_rows and CoreModel.search,
    then the top-k merge. The composed ids must equal LIDER.search's, or
    the trace measures a different program and the query counts as failed.
    Cycles through ``queries`` for ``seconds``, and through each at least once.
    """
    _, c0 = lider.config.resolve(lider.assignments.shape[0])
    c = lider.centroids.shape[0]
    cr = lider.centroid_retriever
    cr_cov, calls, cands, sizes, loc_err = [], [], [], [], []
    qi = 0
    deadline = time.perf_counter() + seconds
    while qi < len(queries) or time.perf_counter() < deadline:
        q = queries[qi % len(queries)]
        root = tracer.open("query", qi)
        ref_ids, _ = tracer.call("search", qi, root, lider.search, q, K)
        clusters, _ = tracer.call("cr", qi, root, cr.search, q, c0)
        cms = [lider.in_cluster[int(j)] for j in clusters if int(j) in lider.in_cluster]
        # One sweep over the probed clusters per call, so that each call finds
        # the caches as the previous sweep left them, as inside LIDER.search.
        parts = [tracer.call("ir.search", qi, root, cm.search, q, K) for cm in cms]
        rows = [tracer.call("ir.candidate_rows", qi, root, cm.candidate_rows, q, K) for cm in cms]
        preds = [tracer.call("ir.predict", qi, root, cm.predict_locations, q) for cm in cms]
        tracer.close(root)
        for cm, (q_keys, locs) in zip(cms, preds):
            loc_err.extend(
                abs(int(loc) - arr.entry_location(int(key)))
                for arr, key, loc in zip(cm.esklsh.arrays, q_keys, locs)
            )
        same = np.array_equal(merge_topk(parts, K), ref_ids)
        tally.record(None if same else f"traced query {qi}: composed ids differ from LIDER.search")
        cr_cov.append(cr.candidate_rows(q, c0).size / c)
        calls.append(len(cms))
        cands.append(sum(r.size for r in rows))
        sizes.append(sum(cm.n for cm in cms))
        qi += 1

    def mean_ms(name: str) -> np.ndarray:
        per_q = tracer.per_query_ms(name)
        return np.array([per_q.get(i, 0.0) for i in range(qi)])

    search, crt = mean_ms("search"), mean_ms("cr")
    pred, cand, irs = mean_ms("ir.predict"), mean_ms("ir.candidate_rows"), mean_ms("ir.search")
    return {
        "cr.ms": float(crt.mean()),
        "cr.coverage": float(np.mean(cr_cov)),
        "ir.hash_rmi.ms": float(pred.mean()),
        "ir.calls": float(np.mean(calls)),
        "ir.window.ms": float((cand - pred).mean()),
        "ir.candidates": float(np.mean(cands)),
        "ir.coverage": float(np.sum(cands) / np.sum(sizes)),
        "rmi.loc_err": float(np.mean(loc_err)),
        "verify.ms": float((irs - cand).mean()),
        "merge.ms": float((search - crt - irs).mean()),
    }


def traced_reader(path: Path, lider: LIDER, queries: np.ndarray, tracer: Tracer, tally: Tally) -> dict:
    """DataSource read side without Spark: LiderReader planning and reads.

    The merged top-k of the rows read must hold LIDER.search's ids.
    """
    plans = []
    for qi, q in enumerate(queries):
        reader = LiderReader({"path": str(path), "query": json.dumps([float(x) for x in q]),
                              "k": str(K)})
        parts = tracer.call("ds.plan", qi, None, reader.partitions)
        rows = []
        for p in parts:
            rows += tracer.call("ds.read", qi, None, lambda p=p: list(reader.read(p)))
        plans.append(len(parts))
        got = [r[0] for r in sorted(rows, key=lambda r: -r[2])[:K]]
        ref = lider.search(q, K)[0]
        tally.record(None if set(got) == set(ref.tolist()) else f"reader query {qi}: ids differ")
    n = len(queries)
    return {
        "ds.plan.ms": sum(tracer.seconds("ds.plan")) * 1e3 / n,
        "ds.read.ms": sum(tracer.seconds("ds.read")) * 1e3 / n,
        "ds.partitions": float(np.mean(plans)),
    }


def traced_build(w: Workload, emb: np.ndarray, tracer: Tracer, spark) -> LIDER:
    """Stage 1, the centroids retriever and the in-cluster retrievers, each
    timed on its own; the returned index equals an untraced build's."""
    cfg = lider_config(w)
    if spark is None:
        centroids, assignments = tracer.call(
            "build.kmeans", -1, None,
            lambda: spherical_kmeans(emb, w.c, n_iter=cfg.kmeans_iters, seed=cfg.base_seed),
        )
    else:
        ids = np.arange(emb.shape[0], dtype=np.int64)
        corpus = EmbeddingCorpus(emb=emb, semantic=emb, topic=np.zeros(len(ids), np.int32), ids=ids)
        df = corpus_to_spark(spark, corpus)
        centroids, assigned = tracer.call(
            "build.kmeans", -1, None,
            lambda: cluster_with_spark_kmeans(spark, df, w.c, seed=cfg.base_seed),
        )
        assignments = (
            assigned.select("id", "cluster_id").toPandas().set_index("id")
            .loc[ids, "cluster_id"].to_numpy(dtype=np.int32)
        )
    cr_cfg = CoreModelConfig(
        h=cfg.h, width=cfg.w_centroids, r0=cfg.r0, b=cfg.b, pad=cfg.pad,
        rescale=cfg.rescale, base_seed=cfg.base_seed, group=CENTROID_GROUP,
    )
    tracer.call("build.cr", -1, None,
                lambda: CoreModel(cr_cfg).fit(centroids, np.arange(len(centroids), dtype=np.int64)))
    if spark is None:
        fit = lambda: LIDER(cfg).fit(emb, assignments=assignments, centroids=centroids)  # noqa: E731
    else:
        fit = lambda: build_lider_spark(  # noqa: E731
            spark, emb, config=cfg, assignments=assignments, centroids=centroids)
    return tracer.call("build.fit_injected", -1, None, fit)


def run_traced(w: Workload, seed: int, seconds: float, workdir: Path, trace_path: Path) -> tuple[dict, Tally]:
    tally = Tally()
    tracer = Tracer()
    emb, queries, _ = make_inputs(w, seed)
    spark = start_spark(workdir) if w.spark else None
    try:
        lider = traced_build(w, emb, tracer, spark)
        path = workdir / "index"
        tracer.call("build.save", -1, None, save_lider_index, lider, str(path))
        tq = queries[:TRACE_QUERIES]
        with one_blas_thread():
            if spark is None:
                warm = one_pass(lambda q: lider.search(q, K), queries[:WARMUP_QUERIES])
            else:
                warm = one_pass(lambda q: ds_search(spark, str(path), q), queries[:WARMUP_DS_QUERIES])
            one_pass(lambda q: lider.search(q, K), tq)  # in-memory path warm for the overhead pair
            untraced = one_pass(lambda q: lider.search(q, K), tq)
            metrics = traced_queries(lider, tq, seconds, tracer, tally)
            metrics.update(traced_reader(path, lider, queries[:TRACE_DS_QUERIES], tracer, tally))
    finally:
        if spark is not None:
            stop_spark(spark)
    build = {name: sum(tracer.seconds(name)) for name in
             ("build.kmeans", "build.cr", "build.fit_injected", "build.save")}
    traced_p50 = float(np.median(tracer.seconds("search")))
    metrics.update({
        "build.kmeans.s": build["build.kmeans"],
        "build.cr.s": build["build.cr"],
        "build.ir.s": build["build.fit_injected"] - build["build.cr"],
        "build.save.s": build["build.save"],
        "save.bytes": dir_bytes(path),
        "warmup.p50_ms": float(np.median(warm)) * 1e3,
        "trace.overhead_pct": 100 * (traced_p50 / float(np.median(untraced)) - 1),
    })
    tracer.write(str(trace_path))
    return metrics, tally
