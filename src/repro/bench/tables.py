"""Drivers that regenerate each evaluation table of the paper (§7.2–7.6).

Every ``tableN`` function returns plain list-of-dict rows (printable with
``format_rows``) so jobs and tests share one code path. Every query
timing goes through :func:`repro.metrics.measure_aqt`.
Paper-scale defaults are in ``jobs/``; tests call these with tiny inputs.
"""
from __future__ import annotations

import time

import numpy as np

from repro.baselines.sklsh import SKLSHIndex
from repro.bench.harness import METHODS, LiderIndex, build_method, evaluate
from repro.core.core_model import CoreModel, CoreModelConfig
from repro.core.lider import CENTROID_GROUP, LIDER, LIDERConfig
from repro.embeddings.datasets import dev_queries, load_dataset, nq_queries, trec_queries
from repro.metrics import measure_aqt, mrr_at_k

DEFAULT_MS_DATASETS = ["MSL-10k", "MSL-30k", "MSL-100k", "MSL-200k"]
DEFAULT_WIKI_DATASET = "WIKI-300k"
ALL_METHODS = list(METHODS)


def format_rows(rows: list[dict], columns: list[str] | None = None) -> str:
    """Fixed-width text table for job output / EXPERIMENTS.md."""
    if not rows:
        return "(no rows)"
    if columns is None:
        # Union of keys, first-seen order (tasks may report different metrics).
        columns = list(dict.fromkeys(k for r in rows for k in r))
    widths = {
        c: max(len(c), *(len(str(r.get(c, ""))) for r in rows)) for c in columns
    }
    header = " | ".join(c.ljust(widths[c]) for c in columns)
    sep = "-+-".join("-" * widths[c] for c in columns)
    lines = [header, sep]
    for r in rows:
        lines.append(" | ".join(str(r.get(c, "")).ljust(widths[c]) for c in columns))
    return "\n".join(lines)


# --------------------------------------------------------------------- table 2
def table2(
    *,
    ms_datasets: list[str] | None = None,
    wiki_dataset: str | None = DEFAULT_WIKI_DATASET,
    methods: list[str] | None = None,
    n_dev: int = 300,
    n_trec: int = 43,
    n_nq: int = 200,
    k: int = 100,
) -> list[dict]:
    """End-to-end retrieval quality + AQT for every method on every task.

    One build per (method, dataset) is reused for every task on it: Dev
    (MRR@10) and TREC (NDCG@10) share the passage collection exactly as in
    the paper, and the Wiki task uses NQ-style queries (MRR@10). The AQT
    columns time the dataset's first task.
    """
    ms_datasets = DEFAULT_MS_DATASETS if ms_datasets is None else ms_datasets
    methods = ALL_METHODS if methods is None else methods
    # (dataset, [(column, query-set maker, query count, metric)])
    ms_tasks = [("dev_mrr@10", dev_queries, n_dev, "mrr"),
                ("trec_ndcg@10", trec_queries, n_trec, "ndcg")]
    runs = [(ds, ms_tasks) for ds in ms_datasets]
    if wiki_dataset:
        runs.append((wiki_dataset, [("nq_mrr@10", nq_queries, n_nq, "mrr")]))
    rows: list[dict] = []
    for ds, tasks in runs:
        corpus = load_dataset(ds)
        workloads = [(column, make(corpus, n), metric) for column, make, n, metric in tasks]
        for method in methods:
            idx, build_s = build_method(method, corpus.emb)
            results = [evaluate(idx, qs, k=k, metric=metric) for _, qs, metric in workloads]
            _, aqt, p50 = results[0]
            rows.append({
                "dataset": ds, "method": method,
                **{column: round(r[0], 4) for (column, _, _), r in zip(workloads, results)},
                "aqt_ms": round(aqt * 1e3, 3), "p50_ms": round(p50 * 1e3, 3),
                "build_s": round(build_s, 2),
            })
    return rows


# --------------------------------------------------------------------- table 3
def table3(
    *,
    dataset: str = "MSL-100k",
    h_values: tuple[int, ...] = (32, 48, 64),
    n_queries: int = 300,
    k: int = 100,
) -> list[dict]:
    """Impact of H on a standalone core model (paper Table 3: MS-1M,
    H = 32/48/64 → MRR@10 + average ESK-LSH expansion time). The
    expansion is always timed through the windows, even at an H whose
    search scans the model whole (``scans_whole``)."""
    corpus = load_dataset(dataset)
    dev = dev_queries(corpus, n_queries)
    rows = []
    for h in h_values:
        cm = CoreModel(CoreModelConfig(h=h)).fit(corpus.emb)
        ranked = [list(map(int, cm.search(q, k)[0])) for q in dev.emb]
        # Expansion = steps 1–4 (hash, RMI prediction, windows, union).
        r = cm.config.r0 * k
        _, seconds = measure_aqt(
            lambda q: cm.esklsh.candidate_rows(cm.predict_locations(q)[1], r), dev.emb
        )
        rows.append(
            {
                "H": h,
                "mrr@10": round(mrr_at_k(ranked, dev.relevant, 10), 4),
                "avg_expansion_s": round(float(seconds.mean()), 6),
            }
        )
    return rows


# --------------------------------------------------------------------- table 4
def table4(
    *,
    dataset: str = "MSL-30k",
    n_queries: int = 1000,
    pad: int = 16,
    h: int = 10,
    le_threshold: int = 100,
) -> list[dict]:
    """Key re-scaling ablation (paper Table 4): counts of out-of-range,
    large-error and overlapping RMI predictions with/without re-scaling.

    One prediction per (query, array); the true location of a query key is
    its insertion point in the sorted array (what a B-tree lookup returns).
    """
    corpus = load_dataset(dataset)
    dev = dev_queries(corpus, n_queries)
    from repro.rmi.rmi import prediction_stats

    rows = []
    for rescale in (False, True):
        cm = CoreModel(CoreModelConfig(h=h, pad=pad, rescale=rescale)).fit(corpus.emb)
        preds, trues = [], []
        for q in dev.emb:
            q_keys, locs = cm.predict_locations(q)
            preds.append(locs)
            trues.append(
                [a.entry_location(int(qk)) for a, qk in zip(cm.esklsh.arrays, q_keys)]
            )
        stats = prediction_stats(
            np.concatenate(preds),
            np.concatenate([np.asarray(t) for t in trues]),
            array_length=corpus.n,
            le_threshold=le_threshold,
        )
        rows.append({"key_rescaling": "Yes" if rescale else "No", **stats})
    return rows


# --------------------------------------------------------------------- table 5
def table5(
    *,
    datasets: list[str] | None = None,
    sklsh_h: dict[str, int] | None = None,
) -> list[dict]:
    """Construction time per stage + index memory, LIDER vs SK-LSH
    (paper Table 5 on the two largest datasets; SK-LSH H=24, but 14 on the
    Wiki corpus per §7.1.2's memory-limit note). LIDER builds no Stage 2:
    its row is the paper's learned CR, built here as an ablation."""
    datasets = datasets or ["MSL-200k", DEFAULT_WIKI_DATASET]
    sklsh_h = sklsh_h or {}
    rows = []
    for ds in datasets:
        corpus = load_dataset(ds)
        lider = LIDER(LIDERConfig()).fit(corpus.emb)
        rep = lider.report
        t0 = time.perf_counter()
        cr = CoreModel(lider.config.core_config(CENTROID_GROUP)).fit(lider.centroids)
        cr_s = time.perf_counter() - t0
        rows += [
            {"dataset": ds, "system": "LIDER Stage 1 - Clustering",
             "time_s": round(rep.stage1_seconds, 2), "memory_mb": round(rep.stage1_bytes / 2**20, 3)},
            {"dataset": ds, "system": "LIDER Stage 2 - Building CR", "time_s": round(cr_s, 2),
             "memory_mb": round((rep.stage1_bytes + cr.nbytes) / 2**20, 3), "note": "not used by search"},
            {"dataset": ds, "system": "LIDER Stage 3 - Building all IRs",
             "time_s": round(rep.stage3_seconds, 2), "memory_mb": round(rep.stage3_bytes / 2**20, 3)},
        ]
        h = sklsh_h.get(ds, 14 if ds.startswith("WIKI") else 24)
        t0 = time.perf_counter()
        sklsh = SKLSHIndex(h=h).fit(corpus.emb)
        rows.append(
            {"dataset": ds, "system": f"SK-LSH (H={h})",
             "time_s": round(time.perf_counter() - t0, 2),
             "memory_mb": round(sklsh.nbytes / 2**20, 3)}
        )
    return rows


# ----------------------------------------------------- clustering sweep (Fig 7/8)
def sweep_clustering(
    *,
    dataset: str = "MSL-100k",
    c_values: tuple[int, ...] | None = None,
    c0_values: tuple[int, ...] | None = None,
    fixed_c: int = 200,
    fixed_c0: int = 8,
    n_queries: int = 200,
    k: int = 100,
) -> list[dict]:
    """The c / c0 sweeps behind Figs. 7–8 (figures are out of scope; the
    sweep itself is reproduced and unit-tested for the documented trends)."""
    corpus = load_dataset(dataset)
    dev = dev_queries(corpus, n_queries)
    settings = [("c0", fixed_c, c0) for c0 in c0_values or ()]
    settings += [("c", c, fixed_c0) for c in c_values or ()]
    rows = []
    for vary, c, c0 in settings:
        idx = LiderIndex(LIDERConfig(c=c, c0=c0)).fit(corpus.emb)
        mrr, aqt, p50 = evaluate(idx, dev, k=k)
        rows.append({"vary": vary, "c": c, "c0": c0, "mrr@10": round(mrr, 4),
                     "aqt_ms": round(aqt * 1e3, 3), "p50_ms": round(p50 * 1e3, 3)})
    return rows
