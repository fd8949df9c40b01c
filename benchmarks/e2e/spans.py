"""Spans recorded from outside the compiler, around calls into each layer.

A span is (name, start, end, parent, workload, program); spans of one
program share its id. They are kept in memory and written when the run
ends as Chrome-trace JSON (load in ``chrome://tracing`` / Perfetto) plus a
per-layer table. A layer's *self* time is its span minus the part its
child spans cover, so ``ps.parse`` excludes the ``ps.lex`` nested in it.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    workload: str
    program: str
    thread: int


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._open = threading.local()

    @contextlib.contextmanager
    def span(self, name: str, program: str = ""):
        stack = getattr(self._open, "stack", None)
        if stack is None:
            stack = self._open.stack = []
        record = Span(
            name, time.perf_counter(), 0.0, stack[-1] if stack else None,
            self.workload, program, threading.get_ident(),
        )
        with self._lock:
            self.spans.append(record)
            stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def self_seconds(self, first: int = 0) -> dict[str, list[float]]:
        """Self time of every finished span from index ``first`` on,
        grouped by span name."""
        child = defaultdict(float)
        for s in self.spans[first:]:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[str, list[float]] = defaultdict(list)
        for i, s in enumerate(self.spans[first:], first):
            out[s.name].append(s.end - s.start - child[i])
        return out

    def table(self) -> str:
        rows = sorted(
            ((sum(v), len(v), name) for name, v in self.self_seconds().items()),
            reverse=True,
        )
        lines = [f"{'layer span':28s} {'calls':>7s} {'self s':>10s}"]
        lines += [f"{name:28s} {n:7d} {total:10.4f}" for total, n, name in rows]
        return "\n".join(lines)

    def write_chrome(self, path) -> None:
        t0 = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": s.name, "ph": "X", "pid": 1, "tid": s.thread,
                "ts": (s.start - t0) * 1e6, "dur": (s.end - s.start) * 1e6,
                "args": {
                    "workload": s.workload, "program": s.program,
                    "parent": s.parent,
                },
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
