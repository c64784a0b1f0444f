"""Profiling hooks: collect traces across a block of queries.

``with engine.profiled() as prof:`` turns tracing on for the block and
hands back a :class:`Profiler`; every query that completes inside the
block contributes its :class:`~repro.obs.trace.Trace`.  Afterwards
``prof.stage_totals()`` aggregates wall-clock per span name — the
per-stage cost breakdown SPARK-style evaluations report.
"""

from __future__ import annotations

import threading
from typing import Dict, List

from repro.obs.trace import Trace

__all__ = ["Profiler"]


class Profiler:
    """Accumulates finished traces; safe to feed from request threads."""

    def __init__(self):
        self._lock = threading.Lock()
        self.traces: List[Trace] = []

    def record(self, trace: Trace) -> None:
        with self._lock:
            self.traces.append(trace)

    def __len__(self) -> int:
        with self._lock:
            return len(self.traces)

    def stage_totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count and total wall-clock milliseconds."""
        with self._lock:
            traces = list(self.traces)
        totals: Dict[str, Dict[str, float]] = {}
        for trace in traces:
            for sp in trace.spans():
                entry = totals.setdefault(sp.name, {"calls": 0, "total_ms": 0.0})
                entry["calls"] += 1
                entry["total_ms"] += sp.duration_ms
        for entry in totals.values():
            entry["total_ms"] = round(entry["total_ms"], 4)
        return totals

    def summary(self) -> str:
        """Printable per-stage table, heaviest stages first."""
        totals = self.stage_totals()
        lines = [f"{len(self)} traces"]
        for name, entry in sorted(
            totals.items(), key=lambda item: -item[1]["total_ms"]
        ):
            lines.append(
                f"  {name:<16} {entry['total_ms']:10.3f} ms over {entry['calls']} calls"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Profiler({len(self)} traces)"
