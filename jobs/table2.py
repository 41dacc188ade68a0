"""Reproduce paper Table 2 (+ the Fig. 4 AQT columns).

    spark-submit jobs/table2.py            # full run, all methods/datasets
    python jobs/table2.py --quick          # small subset for a fast look
    python jobs/table2.py --sweep          # the Fig. 7/8 c and c0 sweeps

The driver needs no SparkSession (latency tables measure the in-memory
index, as the paper does); it is a plain entrypoint so either launcher works.
"""
import argparse
import json
import os

# Queries are timed on one OpenBLAS thread, as the tests and perfbench time
# them: the default pool's per-query time follows the box's load more than
# the code. Set before the first NumPy import.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from repro.bench.tables import format_rows, sweep_clustering, table2  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true", help="MSL-10k only, 3 methods")
    ap.add_argument("--sweep", action="store_true", help="run the c/c0 sweeps instead")
    ap.add_argument("--json", help="also dump rows as JSON to this path")
    args = ap.parse_args()

    if args.sweep:
        rows = sweep_clustering(
            dataset="MSL-100k",
            c0_values=(1, 2, 4, 8, 16, 32),
            c_values=(25, 50, 100, 200, 400, 800),
            fixed_c=200,
            fixed_c0=8,
        )
    elif args.quick:
        rows = table2(ms_datasets=["MSL-10k"], wiki_dataset=None,
                      methods=["Flat", "IVFPQ-HNSW", "LIDER"], n_dev=100)
    else:
        rows = table2()
    print(format_rows(rows))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(rows, f, indent=2)


if __name__ == "__main__":
    main()
