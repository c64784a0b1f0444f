"""Concurrent batch search over a shared engine.

Slides 129-133 (shared and parallel query execution): a server that
receives many keyword queries at once should (a) compute each distinct
query only once and (b) overlap independent queries.  The executor does
both: it coalesces duplicate ``(query, method, k)`` requests before
dispatch, pre-warms the engine substrates the batch will need (so the
pool never races the lazy first build), then fans the distinct requests
out over a :class:`concurrent.futures.ThreadPoolExecutor`.  Workers
share the engine's substrate and result caches, which are lock-guarded.

Failures are isolated per query: one poisoned query yields an error
:class:`BatchOutcome` while its neighbours complete normally.  Transient
errors (substrate build races, injected faults) are retried with capped
exponential backoff, and repeated substrate-build failures trip the
engine's :class:`~repro.resilience.circuit.CircuitBreaker` so the rest
of the batch fails fast instead of hammering a broken build.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.frontend import validate_k
from repro.core.results import ResultSet, SearchResult
from repro.obs.metrics import MetricsRegistry
from repro.resilience.budget import QueryBudget
from repro.resilience.circuit import CircuitBreaker
from repro.resilience.degradation import KNOWN_METHODS
from repro.resilience.errors import (
    CircuitOpenError,
    QueryParseError,
    ReproError,
    SubstrateBuildError,
    classify_error,
)
from repro.resilience.retry import DEFAULT_RETRY, RetryPolicy

#: Search methods that run over the tuple-level data graph.
_GRAPH_METHODS = {"banks", "banks2", "steiner", "distinct_root", "ease"}


@dataclass(frozen=True)
class BatchQuery:
    """One request in a batch."""

    text: str
    k: int = 10
    method: str = "schema"


QueryLike = Union[str, Tuple, BatchQuery]


def as_batch_query(
    query: QueryLike, k: int = 10, method: str = "schema"
) -> BatchQuery:
    """Coerce a str / (text, method[, k]) tuple / BatchQuery to BatchQuery.

    Malformed requests are rejected here, at submission time, with a
    structured :class:`QueryParseError` — before any pool worker runs —
    so a bad request can never cost a thread or poison the batch.
    """
    if isinstance(query, BatchQuery):
        return _validated(query)
    if isinstance(query, str):
        return _validated(BatchQuery(query, k=k, method=method))
    try:
        text = query[0]
        q_method = query[1] if len(query) > 1 else method
        q_k = query[2] if len(query) > 2 else k
    except (TypeError, IndexError, KeyError) as exc:
        raise QueryParseError(
            f"cannot interpret {query!r} as a batch query", cause=exc
        ) from exc
    try:
        q_k = int(q_k)
    except (TypeError, ValueError) as exc:
        raise QueryParseError(f"k must be an integer, got {q_k!r}") from exc
    return _validated(BatchQuery(str(text), k=q_k, method=str(q_method)))


def _validated(query: BatchQuery) -> BatchQuery:
    validate_k(query.k)
    if query.method not in KNOWN_METHODS:
        raise QueryParseError(
            f"unknown method {query.method!r} "
            f"(choices: {', '.join(KNOWN_METHODS)})"
        )
    return query


@dataclass
class BatchOutcome:
    """Per-query verdict from a batch run.

    ``status`` is ``"ok"``, ``"degraded"`` (budget exhausted / ladder
    descent — ``results`` holds the best partial answer) or ``"error"``
    (``results`` is empty and ``error`` holds the structured exception).
    """

    query: BatchQuery
    status: str
    results: ResultSet
    error: Optional[ReproError] = None
    attempts: int = 1
    duration_ms: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status != "error"

    def __repr__(self) -> str:
        tail = f", error={type(self.error).__name__}" if self.error else ""
        return (
            f"BatchOutcome({self.query.text!r}, {self.status}, "
            f"{len(self.results)} results, attempts={self.attempts}{tail})"
        )


class BatchSearchExecutor:
    """Runs independent queries concurrently against one engine.

    Each query is executed inside a fault-isolation boundary: errors are
    captured as :class:`BatchOutcome` objects, transient errors retried
    per *retry* (capped exponential backoff, no jitter — deterministic),
    and substrate-build failures counted against the engine's own
    persistent ``circuit_breaker``.  Batch outcomes land in the engine's
    metrics registry (``batch.*`` counters, ``batch.query_ms``).
    """

    def __init__(
        self,
        engine,
        max_workers: int = 8,
        retry: Optional[RetryPolicy] = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.engine = engine
        self.max_workers = max_workers
        self.retry = retry if retry is not None else DEFAULT_RETRY
        self.breaker: CircuitBreaker = engine.circuit_breaker
        self._sleep = sleep
        self.metrics: MetricsRegistry = engine.metrics
        # Counter updates take this lock: executors may be shared across
        # request threads, and read-modify-write on plain ints is not
        # atomic — served/computed/failed tallies must stay exact.
        self._stats_lock = threading.Lock()
        self.queries_served = 0
        self.queries_computed = 0
        self.queries_failed = 0
        self.queries_degraded = 0
        self.retries = 0

    # ------------------------------------------------------------------
    def warm(self, queries: Sequence[BatchQuery]) -> None:
        """Build the shared substrates this batch needs, single-threaded.

        ``cached_property`` builds are idempotent but expensive; doing
        them once up front keeps pool workers from stacking up behind
        the first build.  A build failure here is swallowed: each query
        retries the build itself inside its own isolation boundary, so
        one broken substrate degrades the affected queries instead of
        killing the whole batch.
        """
        if self.breaker.state != "closed":
            return  # open circuit: don't re-attempt the broken build here
        engine = self.engine
        methods = {q.method for q in queries}
        try:
            engine.index  # inverted index: every method needs it
            if "schema" in methods:
                engine.schema_graph
            if methods & _GRAPH_METHODS:
                engine.data_graph
            if "distinct_root" in methods:
                engine.distance_index
        except Exception:
            pass  # surfaced per-query by _execute_one

    # ------------------------------------------------------------------
    def run_outcomes(
        self,
        queries: Sequence[QueryLike],
        k: int = 10,
        method: str = "schema",
        budget: Optional[QueryBudget] = None,
        timeout_ms: Optional[float] = None,
        max_expansions: Optional[int] = None,
        fallback: bool = False,
    ) -> List[BatchOutcome]:
        """Execute *queries*, returning a :class:`BatchOutcome` each.

        Outcomes come back in request order.  Duplicate requests are
        computed once; each duplicate receives its own result-set clone
        so callers cannot alias each other.  Submission-time validation
        errors (bad ``k``, unknown method) raise immediately — nothing
        has been dispatched yet.

        *budget* bounds the batch as a whole: every query (every retry
        attempt) ticks its own :meth:`QueryBudget.fork` — one absolute
        deadline, caps applied per query, and poisoning *budget* stops
        the queries in flight and those not yet started.  Without it
        ``timeout_ms`` / ``max_expansions`` give each query a fresh
        budget of its own, as in ``search()``.
        """
        batch = [as_batch_query(q, k=k, method=method) for q in queries]
        if not batch:
            return []

        distinct: Dict[BatchQuery, int] = {}
        for query in batch:
            distinct.setdefault(query, len(distinct))
        order = sorted(distinct, key=distinct.__getitem__)
        with self._stats_lock:
            self.queries_served += len(batch)
            self.queries_computed += len(order)
        metrics = self.metrics
        metrics.inc("batch.queries_served", len(batch))
        metrics.inc("batch.queries_computed", len(order))
        metrics.inc("batch.duplicates_coalesced", len(batch) - len(order))

        self.warm(order)

        def search(query: BatchQuery) -> ResultSet:
            return self.engine.search(
                query.text,
                k=query.k,
                method=query.method,
                budget=budget.fork() if budget is not None else None,
                timeout_ms=timeout_ms,
                max_expansions=max_expansions,
                fallback=fallback,
            )

        if self.max_workers == 1 or len(order) == 1:
            computed = [self._execute_one(q, search) for q in order]
        else:
            workers = min(self.max_workers, len(order))
            computed = [None] * len(order)  # type: ignore[list-item]
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = {
                    pool.submit(self._execute_one, q, search): i
                    for i, q in enumerate(order)
                }
                pending = set(futures)
                while pending:
                    done, pending = wait(pending, return_when=FIRST_COMPLETED)
                    for future in done:
                        # _execute_one never raises; .result() only
                        # re-raises catastrophic (e.g. interpreter
                        # shutdown) conditions.
                        computed[futures[future]] = future.result()

        by_query = dict(zip(order, computed))
        failed = degraded = retries = 0
        for outcome in computed:
            if outcome.status == "error":
                failed += 1
            elif outcome.status == "degraded":
                degraded += 1
            retries += max(0, outcome.attempts - 1)
            metrics.inc(f"batch.outcome.{outcome.status}")
            metrics.observe("batch.query_ms", outcome.duration_ms)
        with self._stats_lock:
            self.queries_failed += failed
            self.queries_degraded += degraded
            self.retries += retries
        if retries:
            metrics.inc("batch.retries", retries)

        out: List[BatchOutcome] = []
        for query in batch:
            outcome = by_query[query]
            out.append(
                BatchOutcome(
                    query=query,
                    status=outcome.status,
                    results=outcome.results.clone(),
                    error=outcome.error,
                    attempts=outcome.attempts,
                    duration_ms=outcome.duration_ms,
                )
            )
        return out

    def run(
        self,
        queries: Sequence[QueryLike],
        k: int = 10,
        method: str = "schema",
        budget: Optional[QueryBudget] = None,
        timeout_ms: Optional[float] = None,
        max_expansions: Optional[int] = None,
        fallback: bool = False,
        raise_on_error: bool = False,
    ) -> List[ResultSet]:
        """Execute *queries*, returning result lists in request order.

        Duplicate requests are computed once and fanned back out; the
        outcome is identical to calling ``engine.search`` sequentially
        for each query.  By default a failing query yields an *empty*
        :class:`ResultSet` with its ``error`` attribute set while every
        other query completes; ``raise_on_error=True`` restores the old
        fail-the-batch behavior by re-raising the first error in
        request order.
        """
        outcomes = self.run_outcomes(
            queries,
            k=k,
            method=method,
            budget=budget,
            timeout_ms=timeout_ms,
            max_expansions=max_expansions,
            fallback=fallback,
        )
        if raise_on_error:
            for outcome in outcomes:
                if outcome.error is not None:
                    raise outcome.error
        return [outcome.results for outcome in outcomes]

    # ------------------------------------------------------------------
    def _execute_one(
        self,
        query: BatchQuery,
        search: Callable[[BatchQuery], ResultSet],
    ) -> BatchOutcome:
        """Fault-isolation boundary around one query (``search(query)``).

        Never raises: every exception is classified into the
        :class:`ReproError` taxonomy and returned as an error outcome.
        Transient errors retry with backoff; substrate-build failures
        feed the circuit breaker, and an open breaker fails fast.
        """
        start = time.perf_counter()

        def failed(err: ReproError, attempts: int) -> BatchOutcome:
            return BatchOutcome(
                query=query,
                status="error",
                results=ResultSet(method=query.method, error=err),
                error=err,
                attempts=attempts,
                duration_ms=(time.perf_counter() - start) * 1000.0,
            )

        breaker = self.breaker
        if not breaker.allow():
            return failed(
                CircuitOpenError(
                    "circuit open after repeated substrate failures; failing fast"
                ),
                attempts=0,
            )
        attempt = 1
        while True:
            try:
                results = search(query)
            except Exception as exc:  # noqa: BLE001 — isolation boundary
                err = classify_error(exc)
                if isinstance(err, SubstrateBuildError):
                    breaker.record_failure()
                retryable = (
                    err.transient
                    and attempt < self.retry.max_attempts
                    and breaker.allow()
                )
                if retryable:
                    self._sleep(self.retry.delay(attempt))
                    attempt += 1
                    continue
                return failed(err, attempt)
            breaker.record_success()
            return BatchOutcome(
                query=query,
                status=results.status,
                results=results,
                attempts=attempt,
                duration_ms=(time.perf_counter() - start) * 1000.0,
            )

    def stats(self) -> Dict[str, int]:
        with self._stats_lock:
            return {
                "queries_served": self.queries_served,
                "queries_computed": self.queries_computed,
                "queries_failed": self.queries_failed,
                "queries_degraded": self.queries_degraded,
                "retries": self.retries,
                "max_workers": self.max_workers,
            }

    def __repr__(self) -> str:
        return (
            f"BatchSearchExecutor(workers={self.max_workers}, "
            f"served={self.queries_served}, computed={self.queries_computed}, "
            f"failed={self.queries_failed})"
        )
