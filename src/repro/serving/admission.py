"""Admission control: token buckets, latency EWMA, the shedding ladder.

The serving front end admits a request only after three gates:

1. **bounded queue** — queued + in-flight requests may never exceed
   ``max_concurrency + max_queue_depth``; past that the request is shed
   with a 429 regardless of tenant (the queue cannot grow without
   bound, so neither can memory or tail latency).  This gate runs
   *before* the token bucket so a request shed for server-side load
   never debits the tenant's tokens;
2. **per-tenant token bucket** — each tenant refills at a configured
   rate with a burst allowance; an empty bucket is a per-tenant 429
   with a ``Retry-After`` telling the client exactly when a token will
   exist (no thundering-herd retry storms).  The bucket map itself is
   bounded (``max_tenants``, LRU eviction of idle buckets, shared
   overflow bucket past the cap) — the ``tenant`` parameter is
   client-controlled, so unbounded per-tenant state would be a memory
   DoS vector;
3. **the shedding ladder** — between "healthy" and "full" the
   controller degrades *answers* before it degrades *availability*, by
   mapping load pressure onto the resilience layer's degradation
   ladder (PR 2):

   ======================  =======================================
   pressure                admitted as
   ======================  =======================================
   ``< FULL_BELOW``        requested method, full budget
   ``< FALLBACK_BELOW``    requested method with ``fallback=True``
                           (budget exhaustion descends the ladder)
   ``< 1.0``               ``index_only`` — the terminal rung,
                           guaranteed cheap
   ``>= 1.0``              shed: 429 + Retry-After
   ======================  =======================================

   Pressure is the max of queue occupancy (``depth / capacity``) and
   the latency signal (``ewma / (2 * target)``) — so a server whose
   queue looks short but whose requests got slow still starts
   degrading, and a server at 2x its target latency sheds even with
   queue space left.

A request the server can answer from its result cache (a complete
answer, served on the event loop without a worker slot) passes the
tenant bucket only: it adds nothing to the queue or to the latency
signal, so neither the queue gate nor the pressure gate applies, and it
is never degraded.

Everything is lock-guarded and clock-injectable; the controller is
shared between asyncio route handlers and worker threads.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.obs.metrics import MetricsRegistry
from repro.resilience.failpoints import fail_point

#: Admission modes, healthiest first (mode of an admitted request).
MODE_FULL = "full"
MODE_FALLBACK = "fallback"
MODE_INDEX_ONLY = "index_only"
MODES = (MODE_FULL, MODE_FALLBACK, MODE_INDEX_ONLY)

#: Pressure thresholds of the shedding ladder (see the table above).
FULL_BELOW = 0.5
FALLBACK_BELOW = 0.8


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/s, ``burst`` capacity."""

    __slots__ = ("rate", "burst", "_tokens", "_stamp", "_clock", "_lock")

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = rate
        self.burst = burst
        self._tokens = float(burst)
        self._stamp = clock()
        self._clock = clock
        self._lock = threading.Lock()

    def _refill(self, now: float) -> None:
        elapsed = now - self._stamp
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
            self._stamp = now

    def try_acquire(self, cost: float = 1.0) -> float:
        """Take *cost* tokens; returns 0.0 on success, else seconds until
        the bucket will hold *cost* tokens again (the Retry-After)."""
        with self._lock:
            now = self._clock()
            self._refill(now)
            if self._tokens >= cost:
                self._tokens -= cost
                return 0.0
            return (cost - self._tokens) / self.rate

    def available(self) -> float:
        with self._lock:
            self._refill(self._clock())
            return self._tokens


class LatencyEWMA:
    """Exponentially weighted moving average of request latency (ms).

    With *half_life_s* set the value also halves for every full
    half-life of idle time since the last observation (a server that
    completes requests more often than that sees the plain EWMA).  Shed
    requests never complete, so without the decay one slow request that
    pushes the average past the shed threshold would latch it there:
    nothing is admitted, so nothing is observed, so the average never
    falls.
    """

    __slots__ = ("alpha", "half_life_s", "_value", "_count", "_stamp", "_clock", "_lock")

    def __init__(
        self,
        alpha: float = 0.2,
        half_life_s: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.half_life_s = half_life_s
        self._value = 0.0
        self._count = 0
        self._clock = clock
        self._stamp = clock()
        self._lock = threading.Lock()

    def _decayed(self, now: float) -> float:
        if not self.half_life_s:
            return self._value
        halvings = int(max(0.0, now - self._stamp) / self.half_life_s)
        return self._value * 0.5**halvings if halvings else self._value

    def observe(self, latency_ms: float) -> None:
        with self._lock:
            now = self._clock()
            if self._count == 0:
                self._value = latency_ms
            else:
                value = self._decayed(now)
                self._value = value + self.alpha * (latency_ms - value)
            self._stamp = now
            self._count += 1

    @property
    def value(self) -> float:
        with self._lock:
            return self._decayed(self._clock())

    @property
    def count(self) -> int:
        with self._lock:
            return self._count


@dataclass(frozen=True)
class AdmissionDecision:
    """The controller's verdict on one request."""

    admitted: bool
    mode: str  # MODE_FULL / MODE_FALLBACK / MODE_INDEX_ONLY, or "shed"
    pressure: float
    retry_after_s: float = 0.0
    reason: Optional[str] = None


class AdmissionController:
    """Bounded-queue admission with per-tenant rate limits and shedding.

    The route handler calls :meth:`admit` before queueing, brackets
    execution with :meth:`enqueued` / :meth:`started`, and reports
    completion through :meth:`finished` (which feeds the latency EWMA),
    or through :meth:`served_from_cache` for a cached request.
    """

    def __init__(
        self,
        max_concurrency: int = 8,
        max_queue_depth: int = 32,
        tenant_rate: float = 200.0,
        tenant_burst: float = 400.0,
        target_latency_ms: float = 250.0,
        max_tenants: int = 1024,
        clock: Callable[[], float] = time.monotonic,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if max_concurrency < 1:
            raise ValueError(f"max_concurrency must be >= 1, got {max_concurrency}")
        if max_queue_depth < 0:
            raise ValueError(f"max_queue_depth must be >= 0, got {max_queue_depth}")
        if max_tenants < 1:
            raise ValueError(f"max_tenants must be >= 1, got {max_tenants}")
        self.max_concurrency = max_concurrency
        self.max_queue_depth = max_queue_depth
        self.capacity = max_concurrency + max_queue_depth
        self.tenant_rate = tenant_rate
        self.tenant_burst = tenant_burst
        self.target_latency_ms = target_latency_ms
        # Half-life = the shed threshold (2 x target): an idle server
        # forgets a latency spike on the time scale that defined it.
        self.latency = LatencyEWMA(
            half_life_s=2.0 * target_latency_ms / 1000.0
            if target_latency_ms > 0
            else None,
            clock=clock,
        )
        self._clock = clock
        self._lock = threading.Lock()
        # LRU-ordered, bounded at max_tenants: tenant names arrive from
        # the network, so the map must not grow with attacker-chosen
        # keys.  Tenants past the cap share the overflow bucket.
        self.max_tenants = max_tenants
        self._buckets: "OrderedDict[str, TokenBucket]" = OrderedDict()
        self._overflow_bucket = TokenBucket(
            tenant_rate, tenant_burst, clock=clock
        )
        self._queued = 0
        self._inflight = 0
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.metrics.register_gauge("serve.queue_depth", lambda: self.queued)
        self.metrics.register_gauge("serve.inflight", lambda: self.inflight)
        self.metrics.register_gauge(
            "serve.pressure", lambda: round(self.pressure(), 4)
        )
        self.metrics.register_gauge(
            "serve.latency_ewma_ms", lambda: round(self.latency.value, 3)
        )

    # ------------------------------------------------------------------
    # Load signals
    # ------------------------------------------------------------------
    @property
    def queued(self) -> int:
        with self._lock:
            return self._queued

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    def depth(self) -> int:
        """Requests currently held by the server (queued + in-flight)."""
        with self._lock:
            return self._queued + self._inflight

    def pressure(self) -> float:
        """Unified load signal in [0, inf): >= 1.0 means shed.

        The queue component reaches 1.0 exactly when the bounded queue
        is full; the latency component reaches 1.0 when the EWMA hits
        twice the target (degradation starts well before, at
        ``FULL_BELOW * 2 * target``).
        """
        occupancy = self.depth() / self.capacity
        latency_ratio = 0.0
        if self.target_latency_ms > 0 and self.latency.count:
            latency_ratio = self.latency.value / (2.0 * self.target_latency_ms)
        return max(occupancy, latency_ratio)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    #: How far into the LRU end :meth:`_bucket` looks for an evictable
    #: (fully refilled, hence long-idle) bucket before giving up and
    #: routing the new tenant to the shared overflow bucket.
    _EVICT_SCAN = 16

    def _bucket(self, tenant: str) -> TokenBucket:
        evicted = overflow = False
        try:
            with self._lock:
                bucket = self._buckets.get(tenant)
                if bucket is not None:
                    self._buckets.move_to_end(tenant)
                    return bucket
                if len(self._buckets) >= self.max_tenants:
                    # Evict an idle bucket: one refilled to burst grants
                    # its tenant nothing a fresh bucket wouldn't, so
                    # dropping it can't be used to bypass the limiter.
                    for name in list(
                        itertools.islice(iter(self._buckets), self._EVICT_SCAN)
                    ):
                        candidate = self._buckets[name]
                        if candidate.available() >= candidate.burst:
                            del self._buckets[name]
                            evicted = True
                            break
                if len(self._buckets) >= self.max_tenants:
                    # No idle bucket to reclaim: hold the memory bound
                    # and let the new tenant share the overflow bucket.
                    overflow = True
                    return self._overflow_bucket
                bucket = self._buckets[tenant] = TokenBucket(
                    self.tenant_rate, self.tenant_burst, clock=self._clock
                )
                return bucket
        finally:
            # Counters take their own locks; touch them only after the
            # admission lock is released (gauge callbacks registered on
            # this controller re-acquire it from the metrics side).
            if evicted:
                self.metrics.inc("serve.tenant_evictions")
            if overflow:
                self.metrics.inc("serve.tenant_overflow")

    def admit(
        self, tenant: str = "default", cost: float = 1.0, cached: bool = False
    ) -> AdmissionDecision:
        """Decide whether (and how degraded) to run one request.

        Never raises except through the ``serve.admit`` failpoint; a
        shed decision carries the ``Retry-After`` hint in seconds.
        Server-side gates (queue capacity, overload pressure) run
        before the tenant bucket is charged: a request the server was
        going to shed anyway must not also burn the tenant's tokens.
        A *cached* request (answered from the result cache, never
        queued) meets the tenant bucket alone and is admitted in full.
        """
        fail_point("serve.admit", key=tenant)
        if not cached and self.depth() >= self.capacity:
            self.metrics.inc("serve.shed.queue_full")
            return AdmissionDecision(
                admitted=False,
                mode="shed",
                pressure=self.pressure(),
                retry_after_s=self._overload_retry_after(),
                reason="queue full",
            )
        pressure = self.pressure()
        if not cached and pressure >= 1.0:
            self.metrics.inc("serve.shed.overload")
            return AdmissionDecision(
                admitted=False,
                mode="shed",
                pressure=pressure,
                retry_after_s=self._overload_retry_after(),
                reason=f"overload (pressure {pressure:.2f})",
            )
        retry_after = self._bucket(tenant).try_acquire(cost)
        if retry_after > 0.0:
            self.metrics.inc("serve.shed.rate_limited")
            return AdmissionDecision(
                admitted=False,
                mode="shed",
                pressure=pressure,
                retry_after_s=retry_after,
                reason=f"tenant {tenant!r} over rate limit",
            )
        if cached or pressure < FULL_BELOW:
            mode = MODE_FULL
        elif pressure < FALLBACK_BELOW:
            mode = MODE_FALLBACK
        else:
            mode = MODE_INDEX_ONLY
        self.metrics.inc(f"serve.admitted.{mode}")
        return AdmissionDecision(admitted=True, mode=mode, pressure=pressure)

    def _overload_retry_after(self) -> float:
        """Retry hint under overload: time to drain ~half the queue."""
        ewma_s = max(self.latency.value, 1.0) / 1000.0
        per_slot = ewma_s / self.max_concurrency
        return max(0.05, round(per_slot * max(1, self.depth()) / 2.0, 3))

    # ------------------------------------------------------------------
    # Lifecycle bracketing (route handlers)
    # ------------------------------------------------------------------
    def enqueued(self) -> None:
        with self._lock:
            self._queued += 1

    def started(self) -> None:
        with self._lock:
            self._queued -= 1
            self._inflight += 1

    def abandoned(self) -> None:
        """An enqueued request left before starting (disconnect/drain)."""
        with self._lock:
            self._queued -= 1

    def finished(self, latency_ms: float) -> None:
        with self._lock:
            self._inflight -= 1
        self.latency.observe(latency_ms)
        self.metrics.observe("serve.request_ms", latency_ms)

    def served_from_cache(self, latency_ms: float) -> None:
        """A cached request was answered: it observes ``serve.request_ms``
        but never entered the queue, so it leaves the latency EWMA (the
        pressure signal) alone."""
        self.metrics.observe("serve.request_ms", latency_ms)

    def stats(self) -> Dict[str, object]:
        with self._lock:
            queued, inflight = self._queued, self._inflight
            tenants = len(self._buckets)
        return {
            "queued": queued,
            "inflight": inflight,
            "capacity": self.capacity,
            "pressure": round(self.pressure(), 4),
            "latency_ewma_ms": round(self.latency.value, 3),
            "tenants": tenants,
        }
