"""Zero-downtime engine swaps: an RCU-style generation handle.

The server never hands queries the engine object directly; it hands
them an :class:`EngineHandle`.  Each *generation* pairs an engine with
an epoch number and a reader refcount:

* **readers** (query workers) enter with :meth:`EngineHandle.acquire`,
  which pins the *current* generation — a swap concurrent with the
  query cannot tear the engine out from under it;
* **a swap** builds the next generation's engine elsewhere (background
  thread, possibly a :meth:`DurableEngine.recover`), then calls
  :meth:`swap`: the flip itself is a single pointer exchange under a
  lock (readers are never blocked), after which the swapper *drains* —
  waits for the old generation's refcount to reach zero — before
  tearing the old engine down.  A query therefore always runs start to
  finish on one fully built generation: no torn reads, no
  half-invalidated caches.

``swap.generation`` / ``swap.count`` / ``swap.drain_ms`` surface the
epoch in ``/metrics``; the ``serve.swap`` failpoint fires inside the
swap window so chaos tests can crash or delay a swap mid-flight.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.resilience.failpoints import fail_point


class Generation:
    """One engine epoch with a reader refcount."""

    __slots__ = ("engine", "number", "_refs", "_retired", "_drained", "_lock")

    def __init__(self, engine: Any, number: int):
        self.engine = engine
        self.number = number
        self._refs = 0
        self._retired = False
        self._drained = threading.Event()
        self._lock = threading.Lock()

    def pin(self) -> None:
        with self._lock:
            self._refs += 1

    def unpin(self) -> None:
        with self._lock:
            self._refs -= 1
            if self._refs <= 0 and self._retired:
                self._drained.set()

    def retire(self) -> None:
        """Mark no-new-readers; signals drained once refs hit zero."""
        with self._lock:
            self._retired = True
            if self._refs <= 0:
                self._drained.set()

    def wait_drained(self, timeout_s: Optional[float]) -> bool:
        return self._drained.wait(timeout_s)

    @property
    def readers(self) -> int:
        with self._lock:
            return self._refs


@dataclass(frozen=True)
class SwapResult:
    """Outcome of one :meth:`EngineHandle.swap`."""

    generation: int
    previous_generation: int
    drained: bool
    drain_ms: float
    old_readers_left: int


class EngineHandle:
    """Atomic, drain-on-swap holder of the serving engine."""

    def __init__(
        self,
        engine: Any,
        metrics: Optional[MetricsRegistry] = None,
        teardown: Optional[Callable[[Any], None]] = None,
    ):
        self._current = Generation(engine, 1)
        self._flip_lock = threading.Lock()
        self._swapping = 0  # count of flip()s whose drain hasn't finished
        self.swaps_completed = 0
        #: Called with the old engine after its generation drains
        #: (default: ``engine.close()`` — caches, index segment files
        #: and mmaps — so the memory is reclaimable even if something
        #: still references the object).
        self.teardown = teardown if teardown is not None else _default_teardown
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.metrics.register_gauge("swap.generation", lambda: self.generation)
        self.metrics.register_gauge(
            "swap.in_progress", lambda: int(self.swapping)
        )

    # ------------------------------------------------------------------
    # Reader side
    # ------------------------------------------------------------------
    @contextmanager
    def acquire(self) -> Iterator[Tuple[Any, int]]:
        """Pin the current generation for the duration of one query."""
        with self._flip_lock:
            generation = self._current
            generation.pin()
        try:
            yield generation.engine, generation.number
        finally:
            generation.unpin()

    @property
    def engine(self) -> Any:
        """The current engine (unpinned — for stats, not for queries)."""
        return self._current.engine

    @property
    def generation(self) -> int:
        return self._current.number

    @property
    def swapping(self) -> bool:
        return self._swapping > 0

    def readers(self) -> int:
        return self._current.readers

    # ------------------------------------------------------------------
    # Swapper side
    # ------------------------------------------------------------------
    def flip(self, new_engine: Any) -> Generation:
        """Install *new_engine* as the current generation; return the old.

        The flip is atomic with respect to :meth:`acquire` (readers get
        either the old or the new generation, never a mix) and takes
        only the pointer-exchange lock — callers may hold a mutation
        lock across it without stalling on slow readers.  The returned
        (retired) generation MUST be handed to :meth:`drain`, which is
        where the waiting, teardown, and bookkeeping happen; until then
        :attr:`swapping` stays true.
        """
        with self._flip_lock:
            self._swapping += 1
        try:
            fail_point("serve.swap")
            with self._flip_lock:
                old = self._current
                self._current = Generation(new_engine, old.number + 1)
                old.retire()
            return old
        except BaseException:
            with self._flip_lock:
                self._swapping -= 1
            raise

    def drain(
        self, old: Generation, drain_timeout_s: Optional[float] = 30.0
    ) -> SwapResult:
        """Wait out *old*'s pinned readers, then tear the engine down.

        Blocks the *swapper* — not readers, not new queries — until
        every query pinned to the old generation finishes, or
        ``drain_timeout_s`` elapses (``drained=False``; the old engine
        is leaked rather than torn down under a live reader).  Call
        this *outside* any mutation lock: a long-running query pinned
        to the old generation must never stall inserts or other swaps.
        """
        try:
            start_s = time.perf_counter()
            drained = old.wait_drained(drain_timeout_s)
            drain_ms = (time.perf_counter() - start_s) * 1000.0
            if drained:
                try:
                    self.teardown(old.engine)
                except Exception:  # teardown must never fail a swap
                    pass
            self.swaps_completed += 1
            self.metrics.inc("swap.count")
            self.metrics.observe("swap.drain_ms", drain_ms)
            if not drained:
                self.metrics.inc("swap.drain_timeouts")
            return SwapResult(
                generation=old.number + 1,
                previous_generation=old.number,
                drained=drained,
                drain_ms=drain_ms,
                old_readers_left=old.readers,
            )
        finally:
            with self._flip_lock:
                self._swapping -= 1

    def swap(
        self, new_engine: Any, drain_timeout_s: Optional[float] = 30.0
    ) -> SwapResult:
        """:meth:`flip` + :meth:`drain` in one blocking call."""
        return self.drain(self.flip(new_engine), drain_timeout_s=drain_timeout_s)


def _default_teardown(engine: Any) -> None:
    engine.close()
