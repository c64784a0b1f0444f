"""Per-query tracing: nested spans with durations, counters and tags.

One :class:`Tracer` lives for one query.  Call sites open spans as
context managers::

    with tracer.span("evaluate") as sp:
        ...
        sp.add("cns_executed", n)

and the tracer maintains the nesting stack, so the finished
:class:`Trace` is a tree mirroring the pipeline stages
(``parse -> clean -> substrate_build -> cn_enumerate -> plan ->
evaluate -> score -> topk``).  Interleaved stages that cannot be
bracketed by a ``with`` block (e.g. per-result scoring inside the
evaluation loop) are attached after the fact via :meth:`Tracer.record`
with an accumulated duration.

Tracers are *not* thread-safe: each query gets its own, on the thread
that runs it.  When tracing is disabled
the call sites hold ``tracer is None`` and the helper :func:`span`
yields the no-op :data:`NULL_SPAN`, so the disabled path costs one
``None`` check.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["Span", "Trace", "Tracer", "NULL_SPAN", "span", "format_trace"]


class Span:
    """One timed stage: name, wall-clock, tags, work counters, children."""

    __slots__ = ("name", "start_s", "duration_ms", "tags", "counters", "children", "_tracer")

    def __init__(self, name: str, tracer: Optional["Tracer"] = None):
        self.name = name
        self.start_s: float = 0.0
        self.duration_ms: float = 0.0
        self.tags: Dict[str, Any] = {}
        self.counters: Dict[str, int] = {}
        self.children: List["Span"] = []
        self._tracer = tracer

    # -- annotation ----------------------------------------------------
    def tag(self, key: str, value: Any) -> "Span":
        self.tags[key] = value
        return self

    def add(self, counter: str, n: int = 1) -> "Span":
        self.counters[counter] = self.counters.get(counter, 0) + n
        return self

    # -- context manager (pushes onto the owning tracer's stack) -------
    def __enter__(self) -> "Span":
        self.start_s = time.perf_counter()
        if self._tracer is not None:
            self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration_ms = (time.perf_counter() - self.start_s) * 1000.0
        if exc_type is not None:
            self.tags.setdefault("error", exc_type.__name__)
        if self._tracer is not None:
            self._tracer._pop(self)

    # -- export --------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "duration_ms": round(self.duration_ms, 4),
        }
        if self.tags:
            out["tags"] = dict(self.tags)
        if self.counters:
            out["counters"] = dict(self.counters)
        if self.children:
            out["children"] = [c.as_dict() for c in self.children]
        return out

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return f"Span({self.name}, {self.duration_ms:.3f} ms, {len(self.children)} children)"


class _NullSpan:
    """Shared no-op span: accepts tags/counters, records nothing."""

    __slots__ = ()

    def tag(self, key: str, value: Any) -> "_NullSpan":
        return self

    def add(self, counter: str, n: int = 1) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def __repr__(self) -> str:
        return "NULL_SPAN"


#: Singleton no-op span, handed out wherever tracing is disabled.
NULL_SPAN = _NullSpan()


def span(tracer: Optional["Tracer"], name: str):
    """Span context under *tracer*, or the no-op span when tracing is off."""
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name)


class Trace:
    """A finished span tree for one query."""

    __slots__ = ("root",)

    def __init__(self, root: Span):
        self.root = root

    @property
    def duration_ms(self) -> float:
        return self.root.duration_ms

    def spans(self) -> Iterator[Span]:
        return self.root.walk()

    def span_names(self) -> List[str]:
        """Distinct span names, in first-visit (pre-order) order."""
        seen: Dict[str, None] = {}
        for sp in self.spans():
            seen.setdefault(sp.name, None)
        return list(seen)

    def find(self, name: str) -> Optional[Span]:
        for sp in self.spans():
            if sp.name == name:
                return sp
        return None

    def as_dict(self) -> Dict[str, Any]:
        return self.root.as_dict()

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.as_dict(), indent=indent, default=str, sort_keys=False)

    def to_chrome_trace(self) -> List[Dict[str, Any]]:
        """Chrome ``chrome://tracing`` / Perfetto complete events.

        Durations nest because child spans started after (and ended
        before) their parents; timestamps are relative to the root span
        so the export is stable across runs.
        """
        t0 = self.root.start_s
        events: List[Dict[str, Any]] = []
        for sp in self.spans():
            args: Dict[str, Any] = {}
            args.update({k: str(v) for k, v in sp.tags.items()})
            args.update(sp.counters)
            events.append(
                {
                    "name": sp.name,
                    "ph": "X",
                    "ts": round((sp.start_s - t0) * 1e6, 3),
                    "dur": round(sp.duration_ms * 1000.0, 3),
                    "pid": 0,
                    "tid": 0,
                    "args": args,
                }
            )
        return events

    def __repr__(self) -> str:
        return f"Trace({self.root.name}, {self.duration_ms:.3f} ms, {sum(1 for _ in self.spans())} spans)"


class Tracer:
    """Builds one query's span tree; not shared across threads."""

    __slots__ = ("_root", "_stack")

    def __init__(self):
        self._root: Optional[Span] = None
        self._stack: List[Span] = []

    @property
    def current(self) -> Span:
        """The innermost open span (the root if none is open)."""
        if self._stack:
            return self._stack[-1]
        if self._root is not None:
            return self._root
        raise RuntimeError("no open span; open the root span first")

    def span(self, name: str) -> Span:
        """A new span, attached to the current span when entered."""
        return Span(name, tracer=self)

    def record(
        self,
        name: str,
        duration_s: float,
        counters: Optional[Dict[str, int]] = None,
    ) -> Span:
        """Attach an already-measured child span to the current span.

        For stages interleaved with others in one loop (per-result
        ``score`` / ``topk`` time inside ``evaluate``): the caller
        accumulates wall-clock itself and reports the total here.  Such
        spans overlap their siblings rather than partitioning them.
        """
        sp = Span(name)
        sp.start_s = time.perf_counter() - duration_s
        sp.duration_ms = duration_s * 1000.0
        if counters:
            sp.counters.update(counters)
        parent = self.current
        parent.children.append(sp)
        return sp

    # -- stack maintenance (driven by Span.__enter__/__exit__) ---------
    def _push(self, sp: Span) -> None:
        if self._root is None:
            self._root = sp
        elif self._stack:
            self._stack[-1].children.append(sp)
        else:
            self._root.children.append(sp)
        self._stack.append(sp)

    def _pop(self, sp: Span) -> None:
        if self._stack and self._stack[-1] is sp:
            self._stack.pop()

    def finish(self) -> Trace:
        """The finished trace (root span must have exited)."""
        if self._root is None:
            raise RuntimeError("tracer finished without any span")
        return Trace(self._root)


def format_trace(trace: Trace, min_ms: float = 0.0) -> str:
    """Human-readable indented tree for the CLI ``--trace`` flag."""
    lines: List[str] = []

    def emit(sp: Span, depth: int) -> None:
        if depth > 0 and sp.duration_ms < min_ms:
            return
        parts = [f"{'  ' * depth}{sp.name:<16} {sp.duration_ms:9.3f} ms"]
        extras = [f"{k}={v}" for k, v in sp.counters.items()]
        extras += [f"{k}={v}" for k, v in sp.tags.items()]
        if extras:
            parts.append("  [" + ", ".join(extras) + "]")
        lines.append("".join(parts))
        for child in sp.children:
            emit(child, depth + 1)

    emit(trace.root, 0)
    return "\n".join(lines)
