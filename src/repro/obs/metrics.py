"""Metrics registry: named counters, gauges, log-scale histograms.

The registry supersedes the scattered per-component ``cache_stats()``
dicts with one namespace of named metrics:

* :class:`Counter` — monotonic, lock-protected increments (exact under
  concurrent request threads; ``hits + misses == lookups`` holds to the
  unit).
* :class:`Gauge` — last-written value; *callback gauges*
  (:meth:`MetricsRegistry.register_gauge`) read a live component
  counter at snapshot time, so legacy counters (LRU hit/miss tallies,
  substrate build counts, sharing totals) surface as metrics without
  double bookkeeping.
* :class:`Histogram` — log-scale bucketed distribution with
  p50/p95/p99 estimates; bucket width ``10^(1/BUCKETS_PER_DECADE)``
  bounds the relative percentile error (~±4 % at 32 buckets per
  decade).

Everything is dependency-free and thread-safe.  A process-wide default
registry is available via :func:`get_global_registry`; engines default
to a private registry so tests and concurrent engines stay isolated,
and accept ``metrics=get_global_registry()`` to aggregate.
:meth:`MetricsRegistry.snapshot` is the JSON view (``GET /metrics``);
:meth:`MetricsRegistry.prometheus` renders the same registry as
Prometheus text (``GET /metrics?format=prometheus``).
"""

from __future__ import annotations

import math
import re
import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_global_registry",
]


class Counter:
    """Monotonic counter with lock-protected increments."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """Last-written value (set/add), lock-protected."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value: float = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def add(self, n: float = 1.0) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


#: Log-scale resolution of every :class:`Histogram`.
BUCKETS_PER_DECADE = 32


class Histogram:
    """Log-scale bucketed histogram with percentile estimates.

    A positive observation ``v`` lands in bucket
    ``floor(log10(v) * BUCKETS_PER_DECADE)``; each bucket spans a
    ``10^(1/bpd)`` ratio, so a percentile reported as the bucket's
    geometric midpoint is within half a bucket width of the true value
    (~±4 % relative at bpd=32).  Zero and negative
    observations are counted in a dedicated underflow bucket treated as
    the smallest value.  Exact ``count`` / ``sum`` / ``min`` / ``max``
    are tracked alongside.
    """

    __slots__ = (
        "name",
        "_buckets",
        "_underflow",
        "_count",
        "_sum",
        "_min",
        "_max",
        "_lock",
    )

    def __init__(self, name: str):
        self.name = name
        self._buckets: Dict[int, int] = {}
        self._underflow = 0
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if value > 0.0:
                idx = math.floor(math.log10(value) * BUCKETS_PER_DECADE)
                self._buckets[idx] = self._buckets.get(idx, 0) + 1
            else:
                self._underflow += 1

    # -- estimation ----------------------------------------------------
    def _bucket_mid(self, idx: int) -> float:
        return 10.0 ** ((idx + 0.5) / BUCKETS_PER_DECADE)

    def percentile(self, q: float) -> float:
        """Estimated q-quantile (q in [0, 1]) from the buckets."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        with self._lock:
            if self._count == 0:
                return 0.0
            # Rank of the q-th observation (1-based, nearest-rank).
            rank = max(1, math.ceil(q * self._count))
            seen = self._underflow
            if rank <= seen:
                return max(0.0, self._min)
            for idx in sorted(self._buckets):
                seen += self._buckets[idx]
                if rank <= seen:
                    # Clamp to observed extremes: the top/bottom bucket
                    # midpoints can overshoot the true min/max.
                    return min(max(self._bucket_mid(idx), self._min), self._max)
            return self._max

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            count, total = self._count, self._sum
            lo = self._min if count else 0.0
            hi = self._max if count else 0.0
        return {
            "count": count,
            "sum": round(total, 6),
            "mean": round(total / count, 6) if count else 0.0,
            "min": round(lo, 6),
            "max": round(hi, 6),
            "p50": round(self.percentile(0.50), 6),
            "p95": round(self.percentile(0.95), 6),
            "p99": round(self.percentile(0.99), 6),
        }

    def reset(self) -> None:
        with self._lock:
            self._buckets.clear()
            self._underflow = 0
            self._count = 0
            self._sum = 0.0
            self._min = math.inf
            self._max = -math.inf

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.count})"


class MetricsRegistry:
    """One namespace of named metrics with a consistent snapshot."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._gauge_fns: Dict[str, Callable[[], Any]] = {}

    # -- get-or-create accessors ---------------------------------------
    def _check_free(self, name: str, own: Dict) -> None:
        for family in (self._counters, self._gauges, self._histograms, self._gauge_fns):
            if family is not own and name in family:
                raise ValueError(f"metric {name!r} already registered with another type")

    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                self._check_free(name, self._counters)
                metric = self._counters[name] = Counter(name)
            return metric

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                self._check_free(name, self._gauges)
                metric = self._gauges[name] = Gauge(name)
            return metric

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                self._check_free(name, self._histograms)
                metric = self._histograms[name] = Histogram(name)
            return metric

    def register_gauge(self, name: str, fn: Callable[[], Any]) -> None:
        """Callback gauge: *fn* is read at snapshot time.

        Re-registering replaces the callback (an engine re-wiring its
        caches keeps the same names).
        """
        with self._lock:
            self._check_free(name, self._gauge_fns)
            self._gauge_fns[name] = fn

    # -- convenience ---------------------------------------------------
    def inc(self, name: str, n: int = 1) -> None:
        self.counter(name).inc(n)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    # -- export --------------------------------------------------------
    def _families(self) -> Tuple[List, List, List, List]:
        """(counters, gauges, histograms, callback gauges) as item lists."""
        with self._lock:
            return (
                list(self._counters.items()),
                list(self._gauges.items()),
                list(self._histograms.items()),
                list(self._gauge_fns.items()),
            )

    def snapshot(self) -> Dict[str, Any]:
        """Flat name → value dict; histograms expand to summary dicts."""
        counters, gauges, histograms, gauge_fns = self._families()
        out: Dict[str, Any] = {}
        for name, counter in counters:
            out[name] = counter.value
        for name, gauge in gauges:
            out[name] = gauge.value
        for name, fn in gauge_fns:
            try:
                out[name] = fn()
            except Exception:  # a dead callback must not poison the snapshot
                out[name] = None
        for name, histogram in histograms:
            out[name] = histogram.snapshot()
        return dict(sorted(out.items()))

    def prometheus(self) -> str:
        """The registry in Prometheus text exposition format 0.0.4.

        Counters and gauges keep their type; a callback gauge appears
        only while its value is a number; a histogram becomes a
        ``summary`` with the 0.5 / 0.95 / 0.99 quantiles, ``_sum`` and
        ``_count``.  Names are prefixed ``repro_`` and every character
        outside ``[a-zA-Z0-9_:]`` becomes ``_``; of two names that
        collide, the first in sorted order is kept.
        """
        counters, gauges, histograms, gauge_fns = self._families()
        families: List[Tuple[str, str, List[Tuple[str, Any]]]] = []
        for name, counter in counters:
            families.append((name, "counter", [("", counter.value)]))
        for name, gauge in gauges:
            families.append((name, "gauge", [("", gauge.value)]))
        for name, fn in gauge_fns:
            try:
                value = fn()
            except Exception:  # a dead callback must not poison the scrape
                continue
            if isinstance(value, (int, float)):
                families.append((name, "gauge", [("", value)]))
        for name, histogram in histograms:
            samples: List[Tuple[str, Any]] = [
                (f'{{quantile="{q}"}}', histogram.percentile(q))
                for q in (0.5, 0.95, 0.99)
            ]
            samples += [("_sum", histogram.sum), ("_count", histogram.count)]
            families.append((name, "summary", samples))
        lines: List[str] = []
        seen = set()
        for name, kind, samples in sorted(families, key=lambda f: f[0]):
            metric = "repro_" + _PROM_INVALID.sub("_", name)
            names = {metric + suffix for suffix, _ in samples if suffix[:1] != "{"}
            if metric in seen or names & seen:
                continue
            seen |= names | {metric}
            lines.append(f"# TYPE {metric} {kind}")
            lines.extend(
                f"{metric}{suffix} {_prom_value(value)}" for suffix, value in samples
            )
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        """Zero every owned metric; callback gauges stay registered."""
        with self._lock:
            metrics: List = list(self._counters.values())
            metrics += list(self._gauges.values())
            metrics += list(self._histograms.values())
        for metric in metrics:
            metric.reset()

    def __repr__(self) -> str:
        with self._lock:
            n = (
                len(self._counters)
                + len(self._gauges)
                + len(self._histograms)
                + len(self._gauge_fns)
            )
        return f"MetricsRegistry({n} metrics)"


#: Characters a Prometheus metric name may not hold.
_PROM_INVALID = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_value(value: Any) -> str:
    """A sample value as the exposition format spells it."""
    if isinstance(value, int):  # bool included: 0 / 1
        return str(int(value))
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value)


_GLOBAL_LOCK = threading.Lock()
_GLOBAL: Optional[MetricsRegistry] = None


def get_global_registry() -> MetricsRegistry:
    """The process-wide registry (engines accept it via ``metrics=``)."""
    global _GLOBAL
    with _GLOBAL_LOCK:
        if _GLOBAL is None:
            _GLOBAL = MetricsRegistry()
        return _GLOBAL
