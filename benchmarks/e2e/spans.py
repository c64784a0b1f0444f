"""Bench-owned spans: name, start, end, parent id, request id.

Spans are recorded around the calls the benchmark makes into each
layer, kept in memory and written out once when the run ends.  Times
are ``time.perf_counter()`` seconds (``CLOCK_MONOTONIC``, so spans from
a child process line up with the parent's).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional


class SpanLog:
    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        request: Optional[str] = None,
        **tags: Any,
    ) -> int:
        span_id = len(self.spans) + 1
        span = {
            "id": span_id,
            "name": name,
            "start": start,
            "end": end,
            "parent": parent,
            "request": request,
        }
        if tags:
            span["tags"] = tags
        self.spans.append(span)
        return span_id

    @contextmanager
    def span(
        self,
        name: str,
        parent: Optional[int] = None,
        request: Optional[str] = None,
        **tags: Any,
    ) -> Iterator[int]:
        """Record a span around the body; yields its id for children."""
        span_id = self.add(name, time.perf_counter(), 0.0, parent, request, **tags)
        try:
            yield span_id
        finally:
            self.spans[span_id - 1]["end"] = time.perf_counter()

    def adopt(self, spans: List[Dict[str, Any]], parent: Optional[int]) -> None:
        """Merge spans recorded in a child process under *parent*."""
        offset = len(self.spans)
        for span in spans:
            span = dict(span)
            span["id"] += offset
            span["parent"] = parent if span["parent"] is None else span["parent"] + offset
            self.spans.append(span)

    def self_ms(self) -> Dict[str, float]:
        """Per span name: total duration minus the children's durations."""
        child_ms: Dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None:
                child_ms[span["parent"]] = child_ms.get(span["parent"], 0.0) + (
                    span["end"] - span["start"]
                ) * 1000.0
        out: Dict[str, float] = {}
        for span in self.spans:
            own = (span["end"] - span["start"]) * 1000.0 - child_ms.get(span["id"], 0.0)
            out[span["name"]] = out.get(span["name"], 0.0) + own
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"clock": "perf_counter_s", "spans": self.spans}, fh)
