"""In-memory span recorder for the traced run.

A span is (name, start_ns, end_ns, parent, query id). Spans wrap public
calls into the program from the benchmark side only; nothing inside
``src/`` is instrumented. The spans are kept in a list and written out
once, when the run ends.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, qid]

    def open(self, name: str, qid: int, parent: int | None = None) -> int:
        """Start a span that encloses child spans; close it with ``close``."""
        self.spans.append([name, time.perf_counter_ns(), None, parent, qid])
        return len(self.spans) - 1

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter_ns()

    def call(self, name: str, qid: int, parent: int | None, fn, *args):
        """Run ``fn(*args)`` inside a leaf span and return its result."""
        t0 = time.perf_counter_ns()
        out = fn(*args)
        t1 = time.perf_counter_ns()
        self.spans.append([name, t0, t1, parent, qid])
        return out

    def seconds(self, name: str) -> list[float]:
        """Durations of every span called ``name``, in record order."""
        return [(s[2] - s[1]) / 1e9 for s in self.spans if s[0] == name]

    def per_query_ms(self, name: str) -> dict[int, float]:
        """Total milliseconds spent in spans ``name``, per query id."""
        out: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s[0] == name:
                out[s[4]] += (s[2] - s[1]) / 1e6
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for name, t0, t1, parent, qid in self.spans:
                f.write(json.dumps({"name": name, "start_ns": t0, "end_ns": t1,
                                    "parent": parent, "qid": qid}) + "\n")
