"""Paired benchmark runs of two commits: perfbench, unchanged, on each.

Each commit is exported with ``git archive`` into its own fresh directory,
and ``perfbench/run.py`` runs there for every (workload, seed) pair,
alternating which commit runs first. Every printed metric of every run,
the exact commands and both commit SHAs go to one JSON file, rewritten
after each run, with a summary per workload: each side's runs, attempted
and failed operations and bad runs (incorrect or nonzero exit), and per
metric each side's median and quartiles and how many pairs the change won
(ties count for neither).

    python3 jobs/bench.py --base HEAD~1 --change HEAD --workload mem-c40 \\
        --seeds 301 302 303 --seconds 30 --trace 0 --out results/BENCH_x.json
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=REPO, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> Path:
    """The committed files of ``rev`` in ``dest`` (no untracked files)."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=REPO, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "error": proc.stderr[-2000:]}
    return {"command": " ".join(cmd[1:]), "returncode": proc.returncode,
            "wall_s": time.perf_counter() - t0, "result": result}


def health(runs: list[dict]) -> dict:
    """How the runs went: their count, summed ``attempted`` and ``failed``
    operations, and ``bad_runs``, those with ``correct`` not true or a
    nonzero return code (a run that printed no result counts as bad)."""
    return {
        "runs": len(runs),
        "attempted": sum(r["result"].get("attempted", 0) for r in runs),
        "failed": sum(r["result"].get("failed", 0) for r in runs),
        "bad_runs": sum(r["result"].get("correct") is not True or r["returncode"] != 0
                        for r in runs),
    }


def summarise(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload: each side's :func:`health` over all its runs, and per
    metric each side's median and quartiles and the change's wins over the
    pairs (same workload and seed) where both sides printed metrics."""
    out: dict = {}
    for w in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == w]
        out[w] = {"health": {side: health([r for r in mine if r["side"] == side])
                             for side in ("base", "change")}}
        pairs: dict = {}
        for r in mine:
            if "metrics" in r["result"]:
                pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]["metrics"]
        pairs = {s: p for s, p in pairs.items() if len(p) == 2}
        out[w]["pairs"] = len(pairs)
        if not pairs:
            continue
        names = next(iter(pairs.values()))["base"].keys()
        for name in names:
            base = np.array([p["base"][name]["value"] for p in pairs.values()])
            change = np.array([p["change"][name]["value"] for p in pairs.values()])
            sign = -1 if better.get(name, "lower") == "lower" else 1
            out[w][name] = {
                "base_median": float(np.median(base)),
                "base_quartiles": [float(v) for v in np.percentile(base, [25, 75])],
                "change_median": float(np.median(change)),
                "change_quartiles": [float(v) for v in np.percentile(change, [25, 75])],
                "change_wins": int(np.sum(sign * (change - base) > 0)),
                "base_wins": int(np.sum(sign * (change - base) < 0)),
            }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision of the parent")
    ap.add_argument("--change", required=True, help="git revision of the change")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    shas = {"base": git("rev-parse", args.base), "change": git("rev-parse", args.change)}
    report = {"shas": shas, "seconds": args.seconds, "trace": args.trace, "runs": []}
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        dirs = {side: export(sha, Path(tmp) / side) for side, sha in shas.items()}
        i = 0
        for w in args.workload:
            for seed in args.seeds:
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                i += 1
                for side in order:
                    run = run_once(dirs[side], w, seed, args.seconds, args.trace)
                    run.update({"workload": w, "seed": seed, "side": side, "sha": shas[side],
                                "first": order[0]})
                    report["runs"].append(run)
                    report["summary"] = summarise(report["runs"], better)
                    args.out.write_text(json.dumps(report, indent=1) + "\n")
                    m = run["result"].get("metrics", {})
                    print(f"{w} seed {seed} {side}: correct={run['result'].get('correct')} "
                          + " ".join(f"{k}={v['value']:.4g}" for k, v in m.items()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
