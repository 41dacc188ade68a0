"""Reproduce paper Table 3: impact of H on a standalone core model
(MRR@10 + average ESK-LSH expansion time).

    spark-submit jobs/table3.py    |    python jobs/table3.py
"""
import argparse
import json
import os

# Queries are timed on one OpenBLAS thread, as the tests and perfbench time
# them: the default pool's per-query time follows the box's load more than
# the code. Set before the first NumPy import.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from repro.bench.tables import format_rows, table3  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dataset", default="MSL-100k")
    ap.add_argument("--json", help="also dump rows as JSON to this path")
    args = ap.parse_args()
    rows = table3(dataset=args.dataset)
    print(format_rows(rows))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(rows, f, indent=2)


if __name__ == "__main__":
    main()
