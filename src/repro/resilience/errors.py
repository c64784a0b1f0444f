"""Structured exception taxonomy for the serving path.

Every failure the serving layer can produce is a :class:`ReproError`
subclass, so callers (the batch executor, the CLI, user code) can
classify outcomes without string matching:

* :class:`QueryParseError` — the request itself is malformed (bad ``k``,
  unknown method, unparseable query).  Subclasses :class:`ValueError`
  so pre-taxonomy callers that caught ``ValueError`` keep working.
* :class:`UnsupportedSchemaError` — the method cannot run over this
  schema (``schema`` over a self-referencing foreign key).  A
  :class:`ValueError` but not a parse error: the ladder descends on it.
* :class:`BudgetExceededError` — a query ran out of its
  :class:`~repro.resilience.budget.QueryBudget`.  Algorithms catch this
  internally and return partial results; it only escapes when there was
  nothing partial to return.
* :class:`SubstrateBuildError` — building a shared structure (inverted
  index, data graph, tuple sets, CNs, form pipeline) failed.  Marked
  transient: a retry may succeed, and repeated failures trip the batch
  executor's circuit breaker.
* :class:`TransientError` — explicitly retryable failures (fault
  injection, flaky I/O in future backends).
* :class:`CircuitOpenError` — fast-fail because the substrate circuit
  breaker is open; no work was attempted.
* :class:`SearchExecutionError` — wrapper for unexpected exceptions
  raised inside a worker, so one crashing query is reported instead of
  poisoning its batch.
* :class:`FaultInjectedError` — default exception raised by an
  activated failpoint (see :mod:`repro.resilience.failpoints`).
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for all structured serving-path errors."""

    #: Whether a retry (with backoff) is worthwhile.
    transient: bool = False

    def __init__(self, message: str, *, cause: Optional[BaseException] = None):
        super().__init__(message)
        self.message = message
        self.cause = cause


class QueryParseError(ReproError, ValueError):
    """The request is malformed: bad k, unknown method, bad query text."""


class UnsupportedSchemaError(ReproError, ValueError):
    """The requested method cannot run over this database's schema."""


class BudgetExceededError(ReproError):
    """A query exhausted its budget (deadline or work counters)."""

    def __init__(self, message: str, *, budget=None, cause=None):
        super().__init__(message, cause=cause)
        self.budget = budget


class SubstrateBuildError(ReproError):
    """A shared substrate (index, graph, tuple sets, ...) failed to build."""

    transient = True

    def __init__(self, site: str, cause: Optional[BaseException] = None):
        detail = f": {cause}" if cause is not None else ""
        super().__init__(f"substrate build failed at {site!r}{detail}", cause=cause)
        self.site = site


class TransientError(ReproError):
    """An explicitly retryable failure."""

    transient = True


class CircuitOpenError(ReproError):
    """Fast-fail: the substrate circuit breaker is open."""


class SearchExecutionError(ReproError):
    """Unexpected exception inside a search worker, wrapped for reporting."""


class FaultInjectedError(TransientError):
    """Default exception raised by an activated failpoint."""


def classify_error(exc: BaseException) -> ReproError:
    """Map an arbitrary exception onto the taxonomy.

    :class:`ReproError` instances pass through; ``ValueError`` becomes
    :class:`QueryParseError`; everything else is wrapped in
    :class:`SearchExecutionError` (non-transient).
    """
    if isinstance(exc, ReproError):
        return exc
    if isinstance(exc, ValueError):
        return QueryParseError(str(exc), cause=exc)
    return SearchExecutionError(f"{type(exc).__name__}: {exc}", cause=exc)
