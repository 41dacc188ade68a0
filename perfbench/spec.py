"""What the benchmark measures: workloads, metrics and their bounds.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-spec``), and a self-test keeps the two
equal, so this file is the single place a workload or metric is defined.

Every workload prints every metric: an end-to-end metric is what a user of
that workload waits for or pays, and a per-layer metric is measured on the
workload's own build and query path (the Spark build on ``spark-10k``, the
NumPy build on ``mem-c40``).
"""
from __future__ import annotations

from dataclasses import dataclass

RUN_SECONDS = 30
K = 100  # results per query, as in the paper's MRR@10 / recall runs


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int  # corpus size: the first n vectors of a master of master_n
    master_n: int
    c: int  # clusters
    c0: int  # clusters probed per query
    n_queries: int  # distinct queries; the timed loop cycles through them
    setups: int  # builds per run; setup_s is their median
    spark: bool = False


WORKLOADS = [
    Workload(
        "mem-c40",
        "MSL-200k (seed 7) with c=40, c0=8: clusters of 5k where the windows prune, so "
        "verifying ~22k candidates is half a query and IR hash+window a third",
        n=200_000, master_n=200_000, c=40, c0=8, n_queries=2000, setups=3,
    ),
    Workload(
        "spark-10k",
        "MSL-10k through build_lider_spark + save_lider_index on local[4], then "
        "queries through the lider DataSource: the only load on the Spark path",
        n=10_000, master_n=200_000, c=20, c0=8, n_queries=1000, setups=1, spark=True,
    ),
]
WORKLOADS_BY_NAME = {w.name: w for w in WORKLOADS}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float | None = None  # end-to-end only
    meaning: str = ""


# The serving path is LIDER.search(q, k=100) on the in-memory workloads and
# ann_search_df(...).collect() (planning included) on spark-10k.
END_TO_END = [
    Metric("query_p50_ms", "ms", "lower", 0.25, "median latency of one query on the serving path"),
    # p90, not p99: a spark-10k run fits ~14 DataSource queries, and their
    # p99 (the slowest query) spread 24.5% over 10 seeds against 13% for p50.
    Metric("query_p90_ms", "ms", "lower", 0.25, "90th-percentile latency of one query on the serving path"),
    Metric("qps", "1/s", "higher", 0.25, "completed queries per wall second in the timed closed loop"),
    Metric("setup_s", "s", "lower", 0.25, "median build time: LIDER.fit, or build_lider_spark + save_lider_index in a fresh JVM (cold)"),
    Metric("mrr_at_10", "ratio", "higher", 0.1, "MRR@10 against the synthetic relevance"),
    Metric("recall_at_100", "ratio", "higher", 0.05, "overlap with an exact top-100"),
    Metric("index_bytes", "bytes", "lower", 0.05, "LIDER.memory_footprint(), the paper's Table-5 figure"),
    Metric("peak_rss_mb", "MB", "lower", 0.1, "peak resident memory of the benchmark process from set-up on"),
]

# Per-layer metrics are per query unless the name says otherwise. Each names
# the public call it times or counts and the end-to-end metric it should move.
PER_LAYER = [
    Metric("cr.ms", "ms", "lower", meaning="centroid_retriever.search -> query_p50_ms"),
    Metric("cr.coverage", "ratio", "lower", meaning="centroid_retriever.candidate_rows size / c -> query_p50_ms"),
    Metric("ir.hash_rmi.ms", "ms", "lower", meaning="sum of CoreModel.predict_locations over probed clusters -> query_p50_ms, qps"),
    Metric("ir.calls", "count", "lower", meaning="in-cluster retrievers probed -> query_p50_ms"),
    Metric("ir.window.ms", "ms", "lower", meaning="CoreModel.candidate_rows - predict_locations -> query_p50_ms"),
    Metric("ir.candidates", "count", "lower", meaning="candidate_rows size summed over probed clusters (= rows verified) -> query_p50_ms, recall_at_100"),
    Metric("ir.coverage", "ratio", "lower", meaning="candidates / size of the probed clusters -> query_p50_ms, recall_at_100; prunes on mem-c40"),
    Metric("rmi.loc_err", "rows", "lower", meaning="mean |predict_locations - SortedKeyArray.entry_location| -> recall_at_100, mrr_at_10"),
    Metric("verify.ms", "ms", "lower", meaning="CoreModel.search - candidate_rows, summed -> query_p50_ms; matters on mem-c40"),
    Metric("merge.ms", "ms", "lower", meaning="LIDER.search - (CR + sum of IR search); expected ~0 -> query_p90_ms"),
    Metric("build.kmeans.s", "s", "lower", meaning="Stage 1: spherical_kmeans, or cluster_with_spark_kmeans on spark-10k -> setup_s"),
    Metric("build.cr.s", "s", "lower", meaning="CoreModel.fit on the centroids -> setup_s"),
    Metric("build.ir.s", "s", "lower", meaning="LIDER.fit, or build_lider_spark, with injected clusters, minus build.cr.s -> setup_s, peak_rss_mb"),
    Metric("build.save.s", "s", "lower", meaning="save_lider_index -> setup_s on spark-10k"),
    Metric("save.bytes", "bytes", "lower", meaning="size of the saved index directory"),
    Metric("ds.plan.ms", "ms", "lower", meaning="LiderReader.partitions() with a query -> query_p50_ms on spark-10k"),
    Metric("ds.read.ms", "ms", "lower", meaning="draining LiderReader.read(p) over the planned partitions -> query_p50_ms on spark-10k"),
    Metric("ds.partitions", "count", "lower", meaning="partitions planned per query -> query_p50_ms on spark-10k"),
    Metric("warmup.p50_ms", "ms", "lower", meaning="median latency of the untimed warm-up queries on the serving path"),
    Metric("trace.overhead_pct", "%", "lower", meaning="traced LIDER.search span median vs the untraced median, same run"),
]


def benchmark_json() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
