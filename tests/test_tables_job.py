"""Tests for ``jobs/tables.py``: each table name runs its ``bench/tables.py``
function with the arguments the per-table scripts passed, and only the
tables that time queries pin one OpenBLAS thread."""
import importlib.util
import inspect
import json
import os
from pathlib import Path

import pytest

from repro.bench import tables

_PATH = Path(__file__).resolve().parent.parent / "jobs" / "tables.py"

# argv -> (function, the arguments the old jobs/table{2,3,4,5}.py passed)
OLD_CALLS = {
    ("2",): ("table2", {}),
    ("2", "--quick"): ("table2", {"ms_datasets": ["MSL-10k"], "wiki_dataset": None,
                                  "methods": ["Flat", "IVFPQ-HNSW", "LIDER"], "n_dev": 100}),
    ("3",): ("table3", {"dataset": "MSL-100k"}),
    ("4",): ("table4", {"dataset": "MSL-30k", "n_queries": 1000}),
    ("5",): ("table5", {}),
    ("sweep",): ("sweep_clustering", {"dataset": "MSL-100k",
                                      "c0_values": (1, 2, 4, 8, 16, 32),
                                      "c_values": (25, 50, 100, 200, 400, 800),
                                      "fixed_c": 200, "fixed_c0": 8}),
}
TIMES_QUERIES = {"2", "3", "sweep"}


@pytest.fixture(scope="module")
def job():
    spec = importlib.util.spec_from_file_location("tables_job", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv", OLD_CALLS, ids=" ".join)
def test_runs_table_with_old_arguments(job, argv, monkeypatch, tmp_path, capsys):
    name, old = OLD_CALLS[argv]
    signature = inspect.signature(getattr(tables, name))

    def arguments(kwargs: dict) -> dict:
        bound = signature.bind(**kwargs)
        bound.apply_defaults()
        return dict(bound.arguments)

    calls, rows = [], [{"a": 1, "b": "x"}]
    monkeypatch.setattr(tables, name, lambda **kw: calls.append(kw) or rows)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    out = tmp_path / "rows.json"
    job.main([*argv, "--json", str(out)])
    assert len(calls) == 1 and arguments(calls[0]) == arguments(old)
    assert capsys.readouterr().out == tables.format_rows(rows) + "\n"
    assert json.loads(out.read_text()) == rows
    assert (os.environ.get("OPENBLAS_NUM_THREADS") == "1") == (argv[0] in TIMES_QUERIES)


@pytest.mark.parametrize("table", ["3", "4", "5", "sweep"])
def test_quick_is_table2_only(job, table):
    with pytest.raises(SystemExit):
        job.main([table, "--quick"])
