"""LIDER benchmark: runs one workload and prints its metrics.

Run from the repository root (no PYTHONPATH needed; ``src`` is put on the
path of this process and of Spark's Python workers):

    python3 perfbench/run.py --workload mem-c40 --seed 7 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` prints
the end-to-end metrics of ``spec.END_TO_END``; ``--trace 1`` runs the traced
variant and prints the per-layer metrics of ``spec.PER_LAYER``, writing its
spans to ``.bench_out/trace-<workload>-seed<seed>.jsonl``. The failure rate
is ``failed / attempted``.

    python3 perfbench/run.py --write-spec   # regenerate BENCHMARK.json
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

import spec

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
OUT = REPO / ".bench_out"


def use_repo_src() -> None:
    """Import ``repro`` from this checkout, here and in Spark's Python workers."""
    if not (SRC / "repro").is_dir():
        sys.exit(f"perfbench: no package at {SRC / 'repro'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(spec.WORKLOADS_BY_NAME))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = ap.parse_args(argv)
    if args.write_spec:
        (REPO / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    use_repo_src()
    import bench

    w = spec.WORKLOADS_BY_NAME[args.workload]
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(workdir)
    try:
        if args.trace:
            trace_path = OUT / f"trace-{w.name}-seed{args.seed}.jsonl"
            metrics, tally = bench.run_traced(w, args.seed, args.seconds, workdir, trace_path)
            wanted = spec.PER_LAYER
        else:
            metrics, tally = bench.run_untraced(w, args.seed, args.seconds, workdir)
            wanted = spec.END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = [m.name for m in wanted if m.name not in metrics]
    if missing:
        sys.exit(f"perfbench: metrics not measured: {missing}")
    for reason in tally.reasons:
        print(f"# FAILED: {reason}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m.name: {"value": metrics[m.name], "unit": m.unit} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
