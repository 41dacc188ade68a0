"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""
import json
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import spec

run.use_repo_src()

import bench  # noqa: E402
from checks import Tally, check_topk, exact_topk  # noqa: E402
from tracing import Tracer  # noqa: E402

from repro.core.lider import LIDER, LIDERConfig  # noqa: E402
from repro.embeddings.corpus import exact_topk as exact_topk_reference, make_corpus, make_queries  # noqa: E402
from repro.embeddings.datasets import load_dataset  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.mark.parametrize("workload, dataset", [("mem-c40", "MSL-200k"), ("spark-10k", "MSL-10k")])
def test_default_seed_reproduces_named_dataset(workload, dataset):
    emb, _, _ = bench.make_inputs(spec.WORKLOADS_BY_NAME[workload], 7)
    assert np.array_equal(emb, load_dataset(dataset).emb)


def test_benchmark_json_is_generated_from_spec():
    assert json.loads((run.REPO / "BENCHMARK.json").read_text()) == spec.benchmark_json()


def test_spec_within_contract_limits():
    b = spec.benchmark_json()
    names = [w["name"] for w in b["workloads"]] + [m["name"] for m in b["end_to_end"] + b["per_layer"]]
    assert all(NAME.match(n) for n in names) and len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in b["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in b["end_to_end"])
    setup = next(m for m in b["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in b["end_to_end"])
    assert 1 <= b["run_seconds"] <= 60 and 2 <= len(b["workloads"]) <= 8


def test_check_topk_flags_each_defect():
    g = np.random.default_rng(0)
    emb = g.standard_normal((50, 8)).astype(np.float32)
    q = g.standard_normal(8).astype(np.float32)
    ids = np.argsort(-(emb @ q))[:5]
    scores = emb[ids] @ q
    many = lambda: 50  # noqa: E731
    assert check_topk(ids, scores, emb, q, 5, many) is None
    assert check_topk(ids[::-1], scores[::-1], emb, q, 5, many) == "scores not descending"
    assert check_topk(np.r_[ids[:4], ids[0]], np.r_[scores[:4], scores[0]], emb, q, 5, many) == "duplicate ids"
    assert "score off" in check_topk(ids, scores + 1e-3, emb, q, 5, many)
    assert "candidates" in check_topk(ids[:4], scores[:4], emb, q, 5, many)
    assert check_topk(ids[:4], scores[:4], emb, q, 5, lambda: 4) is None


def test_exact_topk_matches_reference():
    c = make_corpus(3000, dim=16, seed=1)
    qs = make_queries(c, 40, seed=2).emb
    assert np.array_equal(exact_topk(c.emb, qs, 10), exact_topk_reference(c.emb, qs, 10))


def test_traced_composition_returns_lider_ids():
    c = make_corpus(2000, dim=32, seed=3)
    qs = make_queries(c, 20, query_noise=0.5, seed=5).emb
    lider = LIDER(LIDERConfig(c=8, c0=4)).fit(c.emb)
    tracer, tally = Tracer(), Tally()
    m = bench.traced_queries(lider, qs, 0, tracer, tally)
    assert tally.failed == 0 and tally.attempted == len(qs)
    assert m["ir.calls"] == 4
    assert {s[0] for s in tracer.spans} == {"query", "search", "cr", "ir.search", "ir.candidate_rows", "ir.predict"}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.REPO / "BENCHMARK.json", tmp_path)
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mem-c40", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert p.returncode != 0 and "correct" not in p.stdout
