"""Resilient query execution: budgets, degradation, fault isolation.

The serving layer's safety net (see docs/ALGORITHMS.md, "Resilience &
degradation"):

* :mod:`~repro.resilience.budget` — per-query deadlines + work counters
  checked cooperatively inside the search algorithms' hot loops;
* :mod:`~repro.resilience.degradation` — the method ladder a budgeted
  query falls down instead of failing;
* :mod:`~repro.resilience.errors` — the structured exception taxonomy;
* :mod:`~repro.resilience.retry` — capped exponential backoff;
* :mod:`~repro.resilience.circuit` — circuit breaker over substrate
  builds;
* :mod:`~repro.resilience.failpoints` — deterministic fault injection
  for the chaos tests.
"""

from repro.resilience.budget import QueryBudget, make_budget
from repro.resilience.circuit import CircuitBreaker
from repro.resilience.degradation import FALLBACKS, KNOWN_METHODS, fallback_chain
from repro.resilience.errors import (
    BudgetExceededError,
    CircuitOpenError,
    FaultInjectedError,
    QueryParseError,
    ReproError,
    SearchExecutionError,
    SubstrateBuildError,
    TransientError,
    UnsupportedSchemaError,
    classify_error,
)
from repro.resilience.failpoints import FAILPOINTS, FailpointRegistry, fail_point
from repro.resilience.retry import DEFAULT_RETRY, RetryPolicy

__all__ = [
    "QueryBudget",
    "make_budget",
    "CircuitBreaker",
    "KNOWN_METHODS",
    "FALLBACKS",
    "fallback_chain",
    "ReproError",
    "QueryParseError",
    "UnsupportedSchemaError",
    "BudgetExceededError",
    "SubstrateBuildError",
    "TransientError",
    "CircuitOpenError",
    "SearchExecutionError",
    "FaultInjectedError",
    "classify_error",
    "FAILPOINTS",
    "FailpointRegistry",
    "fail_point",
    "RetryPolicy",
    "DEFAULT_RETRY",
]
