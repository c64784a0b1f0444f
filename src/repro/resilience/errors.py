"""Structured exception taxonomy for the serving path.

Every failure the serving layer can produce is a :class:`ReproError`
subclass, so callers (``search_many``, the CLI, user code) can
classify outcomes without string matching:

* :class:`QueryParseError` — the request itself is malformed (bad ``k``,
  unknown method, unparseable query).  Subclasses :class:`ValueError`
  so pre-taxonomy callers that caught ``ValueError`` keep working.
* :class:`UnsupportedSchemaError` — the method cannot answer this query
  over this database: ``schema`` over a self-referencing foreign key,
  or ``steiner`` with more keyword groups than its exact DP takes.  A
  :class:`ValueError` but not a parse error: the ladder descends on it
  and HTTP answers 400.
* :class:`BudgetExceededError` — a query ran out of its
  :class:`~repro.resilience.budget.QueryBudget`.  Algorithms catch this
  internally and return partial results; it only escapes when there was
  nothing partial to return.
* :class:`SubstrateBuildError` — building a shared structure (inverted
  index, data graph, tuple sets, CNs, form pipeline) failed.  The
  builds are deterministic and nothing is memoised on failure, so the
  next query that needs the structure builds it again.
* :class:`SearchExecutionError` — wrapper for unexpected exceptions
  raised inside a worker, so one crashing query is reported instead of
  poisoning its batch.
* :class:`FaultInjectedError` — default exception raised by an
  activated failpoint (see :mod:`repro.resilience.failpoints`).

Nothing is retried: a failed query is reported once, the same way on
``search``, ``search_many`` and both HTTP routes, and the degradation
ladder (plus the sharded merge's "a failed shard degrades the answer")
is the only recovery.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for all structured serving-path errors."""

    def __init__(self, message: str, *, cause: Optional[BaseException] = None):
        super().__init__(message)
        self.message = message
        self.cause = cause


class QueryParseError(ReproError, ValueError):
    """The request is malformed: bad k, unknown method, bad query text."""


class UnsupportedSchemaError(ReproError, ValueError):
    """The requested method cannot answer this query over this database
    (its schema, or the query's shape: too many groups for an exact DP)."""


class BudgetExceededError(ReproError):
    """A query exhausted its budget (deadline or work counters)."""

    def __init__(self, message: str, *, budget=None, cause=None):
        super().__init__(message, cause=cause)
        self.budget = budget


class SubstrateBuildError(ReproError):
    """A shared substrate (index, graph, tuple sets, ...) failed to build."""

    def __init__(self, site: str, cause: Optional[BaseException] = None):
        detail = f": {cause}" if cause is not None else ""
        super().__init__(f"substrate build failed at {site!r}{detail}", cause=cause)
        self.site = site


class SearchExecutionError(ReproError):
    """Unexpected exception inside a search worker, wrapped for reporting."""


class FaultInjectedError(ReproError):
    """Default exception raised by an activated failpoint."""


def classify_error(exc: BaseException) -> ReproError:
    """Map an arbitrary exception onto the taxonomy.

    :class:`ReproError` instances pass through; ``ValueError`` becomes
    :class:`QueryParseError`; everything else is wrapped in
    :class:`SearchExecutionError`.
    """
    if isinstance(exc, ReproError):
        return exc
    if isinstance(exc, ValueError):
        return QueryParseError(str(exc), cause=exc)
    return SearchExecutionError(f"{type(exc).__name__}: {exc}", cause=exc)
