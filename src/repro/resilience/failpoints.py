"""Deterministic fault-injection registry ("failpoints").

Named sites in the serving path call :func:`fail_point`; a site is a
no-op until a test activates it, after which it raises a chosen
exception and/or sleeps for a chosen delay — deterministically, with an
optional hit-count limit and an optional *key* filter so a single query
in a batch can be poisoned while its neighbours run clean.

Sites currently wired in (see docs/ALGORITHMS.md for the full table):

=============================   ==========================================
name                            fires when
=============================   ==========================================
``engine.index_build``          the inverted index is (re)built
``engine.data_graph_build``     the tuple-level data graph is (re)built
``engine.search``               a query executes (key = raw query text)
``engine.method``               a ladder rung dispatches (key = method)
``substrates.tuple_sets``       a tuple-set substrate builds (key = kws)
``substrates.candidate_networks``  a CN substrate builds (key = kws)
``substrates.keyword_groups``   a keyword group builds (key = keyword)
``cache.result_put``            a result is stored in the result LRU
``shard.execute``               a shard starts its slice (key = shard id)
``wal.append``                  before a WAL record is written (key =
                                table); an armed raise leaves a torn
                                half-record on disk
``wal.fsync``                   after a WAL flush, before ``os.fsync``
``snapshot.commit``             after the manifest fsync, before the
                                rename that commits it (key = lsn)
=============================   ==========================================

The registry is intentionally tiny and lock-guarded; the inactive fast
path is a single dict emptiness check.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional, Tuple, Union

from repro.resilience.errors import FaultInjectedError

ExcFactory = Union[BaseException, Callable[[], BaseException], type, None]


class _Spec:
    __slots__ = ("exc", "delay", "times", "key", "hits")

    def __init__(self, exc: ExcFactory, delay: float, times: Optional[int], key):
        self.exc = exc
        self.delay = delay
        self.times = times
        self.key = key
        self.hits = 0


class FailpointRegistry:
    """Process-wide registry of activatable fault-injection sites."""

    def __init__(self):
        self._specs: Dict[str, _Spec] = {}
        self._lock = threading.Lock()
        self._hit_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Activation API (tests)
    # ------------------------------------------------------------------
    def activate(
        self,
        name: str,
        exc: ExcFactory = FaultInjectedError,
        delay: float = 0.0,
        times: Optional[int] = None,
        key=None,
    ) -> None:
        """Arm *name*: raise/sleep on the next ``times`` matching hits.

        ``exc`` may be an exception instance, an exception class, a
        zero-arg factory, or None (delay-only).  ``key`` restricts the
        failpoint to hits whose site passed an equal key — this is what
        lets one query of a batch be poisoned deterministically.
        """
        with self._lock:
            self._specs[name] = _Spec(exc, delay, times, key)

    def deactivate(self, name: str) -> None:
        with self._lock:
            self._specs.pop(name, None)

    def clear(self) -> None:
        """Disarm every failpoint (hit counters survive for inspection)."""
        with self._lock:
            self._specs.clear()

    def reset(self) -> None:
        """Disarm everything and zero the hit counters."""
        with self._lock:
            self._specs.clear()
            self._hit_counts.clear()

    @contextmanager
    def injected(self, name: str, **kwargs) -> Iterator[None]:
        """``with FAILPOINTS.injected("site", exc=..., times=1): ...``"""
        self.activate(name, **kwargs)
        try:
            yield
        finally:
            self.deactivate(name)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def hits(self, name: str) -> int:
        """How many times *name* has actually fired."""
        with self._lock:
            return self._hit_counts.get(name, 0)

    def active(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._specs))

    # ------------------------------------------------------------------
    # Site API (production code)
    # ------------------------------------------------------------------
    def hit(self, name: str, key=None) -> None:
        """Called at an instrumented site; no-op unless armed."""
        if not self._specs:  # fast path: nothing armed anywhere
            return
        with self._lock:
            spec = self._specs.get(name)
            if spec is None:
                return
            if spec.key is not None and spec.key != key:
                return
            if spec.times is not None:
                if spec.times <= 0:
                    return
                spec.times -= 1
                if spec.times == 0:
                    self._specs.pop(name, None)
            spec.hits += 1
            self._hit_counts[name] = self._hit_counts.get(name, 0) + 1
            delay, exc = spec.delay, spec.exc
        if delay > 0:
            time.sleep(delay)
        if exc is None:
            return
        if isinstance(exc, BaseException):
            raise exc
        if isinstance(exc, type) and issubclass(exc, BaseException):
            raise exc(f"fault injected at {name!r}")
        raise exc()


#: Process-wide singleton used by every instrumented site.
FAILPOINTS = FailpointRegistry()


def fail_point(name: str, key=None) -> None:
    """Module-level shorthand for ``FAILPOINTS.hit(name, key)``."""
    FAILPOINTS.hit(name, key)
