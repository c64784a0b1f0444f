"""Batch search over the shared query front end.

Slides 129-133 (shared query execution): a server that receives many
keyword queries at once should compute each distinct query only once.
:func:`run_batch` validates every request up front, coalesces duplicate
``(query, k, method)`` requests, runs each distinct query on the calling
thread through ``engine.search`` and fans the answers back out in
request order.  There is no thread pool: under one interpreter lock a
pool can only overlap waits, and a sequential loop measured faster.

Failures are isolated per query: one poisoned query yields an error
:class:`BatchOutcome` while its neighbours complete normally.  A failed
query is reported once, exactly as ``engine.search`` raised it — no
retry, no backoff, no breaker — so a batch and a single ``search`` of
the same text give the same verdict, and a healed fault is healed for
the very next query.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.frontend import validate_k
from repro.core.results import ResultSet
from repro.resilience.budget import QueryBudget
from repro.resilience.degradation import KNOWN_METHODS
from repro.resilience.errors import QueryParseError, ReproError, classify_error


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
    structured :class:`QueryParseError` — before any query of the batch
    runs — so a bad request can never poison half a batch.
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
    duration_ms: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status != "error"

    def __repr__(self) -> str:
        tail = f", error={type(self.error).__name__}" if self.error else ""
        return (
            f"BatchOutcome({self.query.text!r}, {self.status}, "
            f"{len(self.results)} results{tail})"
        )


def run_batch(
    engine,
    queries: Sequence[QueryLike],
    k: int = 10,
    method: str = "schema",
    budget: Optional[QueryBudget] = None,
    timeout_ms: Optional[float] = None,
    max_expansions: Optional[int] = None,
    fallback: bool = False,
) -> List[BatchOutcome]:
    """Execute *queries* on *engine*, returning a :class:`BatchOutcome` each.

    Outcomes come back in request order.  Duplicate requests are
    computed once; each request receives its own result-set clone so
    callers cannot alias each other.  Submission-time validation errors
    (bad ``k``, unknown method) raise before any query runs.

    *budget* bounds the batch as a whole: every query ticks its own
    :meth:`QueryBudget.fork` — one absolute deadline, caps applied per
    query, and poisoning *budget* stops the query running and those not
    yet started.  Without it ``timeout_ms``
    / ``max_expansions`` give each query a fresh budget of its own, as
    in ``search()``.  Outcomes land in the engine's metrics registry
    (``batch.*`` counters, ``batch.query_ms``).
    """
    batch = [as_batch_query(q, k=k, method=method) for q in queries]
    if not batch:
        return []
    distinct = list(dict.fromkeys(batch))
    metrics = engine.metrics
    metrics.inc("batch.queries_served", len(batch))
    metrics.inc("batch.queries_computed", len(distinct))
    metrics.inc("batch.duplicates_coalesced", len(batch) - len(distinct))

    options = {
        "timeout_ms": timeout_ms,
        "max_expansions": max_expansions,
        "fallback": fallback,
    }
    computed: Dict[BatchQuery, BatchOutcome] = {}
    for query in distinct:
        outcome = computed[query] = _isolated(engine, query, budget, options)
        metrics.inc(f"batch.outcome.{outcome.status}")
        metrics.observe("batch.query_ms", outcome.duration_ms)
    out: List[BatchOutcome] = []
    for query in batch:
        outcome = computed[query]
        out.append(
            BatchOutcome(
                query=query,
                status=outcome.status,
                results=outcome.results.clone(),
                error=outcome.error,
                duration_ms=outcome.duration_ms,
            )
        )
    return out


def _isolated(
    engine,
    query: BatchQuery,
    budget: Optional[QueryBudget],
    options: Dict[str, Any],
) -> BatchOutcome:
    """Fault-isolation boundary around one ``engine.search`` of *query*.

    Never raises: an exception is classified into the
    :class:`ReproError` taxonomy and returned as an error outcome.
    """
    start = perf_counter()
    error: Optional[ReproError] = None
    try:
        results = engine.search(
            query.text,
            k=query.k,
            method=query.method,
            budget=budget.fork() if budget is not None else None,
            **options,
        )
        status = results.status
    except Exception as exc:  # noqa: BLE001 — isolation boundary
        error = classify_error(exc)
        results, status = ResultSet(method=query.method, error=error), "error"
    return BatchOutcome(
        query=query,
        status=status,
        results=results,
        error=error,
        duration_ms=(perf_counter() - start) * 1000.0,
    )
