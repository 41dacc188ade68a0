"""Reproduce the paper's evaluation: Tables 2-5 and the §7.5 c/c0 sweeps
behind Figs. 7-8, each printed as a text table (``--json`` also dumps the
rows). It needs no SparkSession: the tables measure the in-memory index,
as the paper does.

    python jobs/tables.py {2,3,4,5,sweep} [--json PATH]
    python jobs/tables.py 2 --quick     # MSL-10k only, 3 methods
"""
import argparse
import json
import os

# Table name -> (``repro.bench.tables`` function, its arguments, whether it
# times queries).
TABLES = {
    "2": ("table2", {}, True),
    "3": ("table3", {}, True),
    "4": ("table4", {}, False),
    "5": ("table5", {}, False),
    "sweep": ("sweep_clustering", {
        "dataset": "MSL-100k",
        "c0_values": (1, 2, 4, 8, 16, 32),
        "c_values": (25, 50, 100, 200, 400, 800),
        "fixed_c": 200,
        "fixed_c0": 8,
    }, True),
}
QUICK = {"ms_datasets": ["MSL-10k"], "wiki_dataset": None,
         "methods": ["Flat", "IVFPQ-HNSW", "LIDER"], "n_dev": 100}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("table", choices=TABLES)
    ap.add_argument("--quick", action="store_true", help="Table 2 on MSL-10k only, 3 methods")
    ap.add_argument("--json", help="also dump rows as JSON to this path")
    args = ap.parse_args(argv)
    if args.quick and args.table != "2":
        ap.error("--quick applies to Table 2 only")
    func, kwargs, timed = TABLES[args.table]
    if timed:
        # Queries are timed on one OpenBLAS thread, as the tests and
        # perfbench time them: the default pool's per-query time follows
        # the box's load more than the code. Builds (Table 5) keep the
        # default pool, as perfbench's do. Set before NumPy is imported.
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from repro.bench import tables

    rows = getattr(tables, func)(**(QUICK if args.quick else kwargs))
    print(tables.format_rows(rows))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(rows, f, indent=2)


if __name__ == "__main__":
    main()
