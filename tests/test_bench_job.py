"""Tests for ``jobs/bench.py``'s summary of paired benchmark runs."""
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "jobs" / "bench.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_job", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(side, result, returncode=0):
    return {"workload": "w", "seed": 1, "side": side, "returncode": returncode,
            "result": result}


def test_summarise_reports_failed_operations(bench):
    """Failed operations and incorrect runs show in the summary next to the
    metric medians, even where the metrics alone look better."""
    runs = [
        _run("base", {"correct": True, "attempted": 100, "failed": 0,
                      "metrics": {"qps": {"value": 10.0}}}),
        _run("change", {"correct": False, "attempted": 90, "failed": 4,
                        "metrics": {"qps": {"value": 12.0}}}, returncode=1),
    ]
    summary = bench.summarise(runs, {"qps": "higher"})["w"]
    assert summary["health"] == {
        "base": {"runs": 1, "attempted": 100, "failed": 0, "bad_runs": 0},
        "change": {"runs": 1, "attempted": 90, "failed": 4, "bad_runs": 1},
    }
    assert summary["pairs"] == 1
    assert summary["qps"]["change_median"] == 12.0 and summary["qps"]["change_wins"] == 1
