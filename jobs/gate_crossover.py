"""Windowed against whole-cluster verification over a k-sweep: where the
whole-cluster scan (``core_model.scans_whole``) starts to pay.

On one LIDER build (MSL-200k, c=40, c0=8 by default), each k times
``LIDER.search`` over the dev queries with every probed cluster forced
through its ESK-LSH windows (``GATE_ALPHA`` = inf) and with every one
scanned whole (``GATE_ALPHA`` = 0), alternating the two arms over
``--reps`` passes, on one OpenBLAS thread. Each k also records the mean
coverage ratio H·min(r0·k, n_j)/n_j over the probed (query, cluster) pairs,
the windows' candidates per probed row, and each arm's MRR@10.

The crossover of a load condition is the ratio where the whole scan's p50
gain changes sign, linear between the two k it falls between. ``--stream``
lists the conditions, each a number N ≤ 2 of background processes that
stream memory while the sweep runs; ``GATE_ALPHA`` is the crossover with
two:

    python jobs/gate_crossover.py --stream 0 2 --out results/gate_crossover.json
"""
import argparse
import json
import os
import subprocess
import sys
import time

# Queries are timed on one OpenBLAS thread, as perfbench and the tables time
# them. Set before the first NumPy import.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from repro.core import core_model  # noqa: E402
from repro.core.lider import LIDER, LIDERConfig  # noqa: E402
from repro.embeddings.datasets import dev_queries, load_dataset  # noqa: E402
from repro.metrics import measure_aqt, mrr_at_k  # noqa: E402

MAX_STREAMS = 2
# Copies one 64 MB float64 array into another, forever: each pass reads and
# writes far more than any cache holds, so it competes for memory bandwidth.
STREAM = ("import numpy as np\na = np.ones(8 << 20)\nb = np.empty_like(a)\n"
          "while True: np.copyto(b, a)\n")
ARMS = {"windowed": np.inf, "whole": 0.0}


def start_streams(n: int) -> list[subprocess.Popen]:
    procs = [subprocess.Popen([sys.executable, "-c", STREAM]) for _ in range(n)]
    time.sleep(1.0)  # let them reach their copy loop
    return procs


def stop_streams(procs: list[subprocess.Popen]) -> None:
    for p in procs:
        p.terminate()
    for p in procs:
        p.wait(timeout=30)


def coverage(lider: LIDER, queries: np.ndarray, k: int) -> tuple[float, float]:
    """(mean H·min(r0·k, n_j)/n_j, windowed candidates / rows) over the
    probed (query, cluster) pairs, every cluster through its windows."""
    core_model.GATE_ALPHA = np.inf
    _, c0 = lider.config.resolve(lider.assignments.shape[0])
    r, ratios, cands, rows = lider.config.r0 * k, [], 0, 0
    for q in queries:
        probed, _ = lider.centroid_retriever.search(q, km=c0)
        for j in probed.tolist():
            n = int(lider.sizes[j])
            ratios.append(lider.config.h * min(r, n) / n)
            cands += lider.in_cluster[j].candidate_rows(q, k).size
            rows += n
    return float(np.mean(ratios)), cands / rows


def sweep(lider, queries, relevant, ks, reps: int) -> list[dict]:
    rows = []
    for k in ks:
        ratio, cov = coverage(lider, queries, k)
        lat = {arm: [] for arm in ARMS}
        mrr = {}
        for rep in range(reps):
            arms = list(ARMS) if rep % 2 == 0 else list(ARMS)[::-1]
            for arm in arms:
                core_model.GATE_ALPHA = ARMS[arm]
                ranked, seconds = measure_aqt(lambda q: lider.search(q, k)[0], queries)
                lat[arm].append(seconds)
                mrr[arm] = mrr_at_k([r.tolist() for r in ranked], relevant, 10)
        row = {"k": k, "ratio": round(ratio, 4), "window_coverage": round(cov, 4)}
        for arm in ARMS:
            s = np.concatenate(lat[arm]) * 1e3
            row[f"{arm}_p50_ms"] = round(float(np.percentile(s, 50)), 4)
            row[f"{arm}_p90_ms"] = round(float(np.percentile(s, 90)), 4)
            row[f"{arm}_mrr@10"] = round(mrr[arm], 4)
        row["whole_gain_p50"] = round(row["whole_p50_ms"] / row["windowed_p50_ms"] - 1, 4)
        print(json.dumps(row), flush=True)
        rows.append(row)
    return rows


def crossover(rows: list[dict]) -> float | None:
    """The ratio where the whole scan's p50 gain first turns from a loss to
    a win with rising ratio, linear between the two rows; None without one."""
    for lo, hi in zip(rows, rows[1:]):
        g0, g1 = lo["whole_gain_p50"], hi["whole_gain_p50"]
        if g0 > 0 >= g1:
            return round(lo["ratio"] + (hi["ratio"] - lo["ratio"]) * g0 / (g0 - g1), 4)
    return None


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--dataset", default="MSL-200k")
    ap.add_argument("--c", type=int, default=40)
    ap.add_argument("--c0", type=int, default=8)
    ap.add_argument("--ks", type=int, nargs="+", default=[10, 20, 50, 70, 100, 200])
    ap.add_argument("--queries", type=int, default=300)
    ap.add_argument("--reps", type=int, default=4, help="passes per arm and k, alternating")
    ap.add_argument("--stream", type=int, nargs="+", default=[0],
                    help=f"background memory-streaming processes per condition (≤ {MAX_STREAMS})")
    ap.add_argument("--out", help="write the JSON here")
    args = ap.parse_args()
    for n in args.stream:
        if not 0 <= n <= MAX_STREAMS:
            ap.error(f"--stream takes 0 to {MAX_STREAMS} processes, got {n}")

    corpus = load_dataset(args.dataset)
    dev = dev_queries(corpus, args.queries)
    lider = LIDER(LIDERConfig(c=args.c, c0=args.c0)).fit(corpus.emb)
    ks = sorted(args.ks)
    conditions = []
    for n in args.stream:
        procs = start_streams(n)
        try:
            rows = sweep(lider, dev.emb, dev.relevant, ks, args.reps)
        finally:
            stop_streams(procs)
        conditions.append({"streams": n, "crossover": crossover(rows), "rows": rows})
        print(f"# {n} streams: crossover ratio {conditions[-1]['crossover']}", flush=True)
    out = {
        "dataset": args.dataset, "c": args.c, "c0": args.c0, "h": lider.config.h,
        "r0": lider.config.r0, "queries": args.queries, "reps": args.reps,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cluster_sizes": [int(lider.sizes.min()), int(np.median(lider.sizes)),
                          int(lider.sizes.max())],
        "command": " ".join([os.path.basename(sys.executable), *sys.argv]),
        "conditions": conditions,
    }
    if args.out:
        with open(args.out, "w") as f:
            json.dump(out, f, indent=2)


if __name__ == "__main__":
    main()
