"""The suite's in-memory span recorder (used by ``--trace`` runs only).

A span is ``(id, name, start, end, parent, request)``.  Spans are kept in
memory and written out when the run ends; a layer's *self time* is its
span's duration minus the part of that interval its child spans cover
(children of a fan-out overlap, so the cover is a union of intervals).
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from pathlib import Path


class SpanRecorder:
    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans: list[dict] = []

    def current(self) -> int | None:
        """Id of the innermost open span on this thread."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    @contextlib.contextmanager
    def span(self, name: str, request=None, parent: int | None = None):
        """Record one span.  ``parent`` defaults to the innermost open
        span of the calling thread; pass it explicitly for work a span
        hands to another thread."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if parent is None and stack:
            parent = stack[-1]
        record = {
            "id": None,
            "name": name,
            "start": None,
            "end": None,
            "parent": parent,
            "request": request,
        }
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record["id"])
        record["start"] = self._clock()
        try:
            yield record["id"]
        finally:
            record["end"] = self._clock()
            stack.pop()

    def durations(self, name: str) -> list[float]:
        return [
            s["end"] - s["start"] for s in self.spans if s["name"] == name
        ]

    def dump(self, path: str | Path, **header) -> None:
        payload = {**header, "spans": self.spans, "self_s": self_times(self.spans)}
        Path(path).write_text(json.dumps(payload) + "\n", encoding="utf-8")


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    covered = 0.0
    reach = start
    for low, high in sorted(intervals):
        low = max(low, reach)
        high = min(high, end)
        if high > low:
            covered += high - low
            reach = high
    return covered


def self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time per span name."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    totals: dict[str, float] = {}
    for span in spans:
        duration = span["end"] - span["start"]
        own = duration - _covered(
            span["start"], span["end"], children.get(span["id"], [])
        )
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals
