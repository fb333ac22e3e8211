"""Spans for the traced pass, kept in memory and written out at the end.

A span has a name, a start, an end and the span open around it when it
started (its parent). Self time is a span's duration minus the durations
of its children; the pass is single-threaded, so children never overlap.
A disabled tracer times nothing and records nothing.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self, trace_id: str, enabled: bool = True):
        self.trace_id = trace_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            self._open.pop()
            record["end_ns"] = time.perf_counter_ns()

    def seconds(self, name: str) -> float:
        """Total duration of every span with this name."""
        return sum(s["end_ns"] - s["start_ns"] for s in self.spans if s["name"] == name) / 1e9


def write_spans(tracers: list[Tracer], path: Path) -> None:
    """Every span of every tracer, one JSON object per line, with self time."""
    with open(path, "w", encoding="utf-8") as fh:
        for tracer in tracers:
            child_ns = [0] * len(tracer.spans)
            for s in tracer.spans:
                if s["parent"] is not None:
                    child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
            for s, children in zip(tracer.spans, child_ns):
                self_ns = s["end_ns"] - s["start_ns"] - children
                fh.write(json.dumps({"trace_id": tracer.trace_id, **s, "self_ns": self_ns}) + "\n")
