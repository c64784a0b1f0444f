"""Resilient query execution: budgets, degradation, fault isolation.

The serving layer's safety net (see docs/ALGORITHMS.md, "Resilience &
degradation"):

* :mod:`~repro.resilience.budget` — per-query deadlines + work counters
  checked cooperatively inside the search algorithms' hot loops;
* :mod:`~repro.resilience.degradation` — the method ladder a budgeted
  query falls down instead of failing;
* :mod:`~repro.resilience.errors` — the structured exception taxonomy;
* :mod:`~repro.resilience.failpoints` — deterministic fault injection
  for the chaos tests.

There is no retry and no circuit breaker: a failed query is reported
once, and the ladder is the only recovery.
"""

from repro.resilience.budget import QueryBudget, make_budget
from repro.resilience.degradation import FALLBACKS, KNOWN_METHODS, fallback_chain
from repro.resilience.errors import (
    BudgetExceededError,
    FaultInjectedError,
    QueryParseError,
    ReproError,
    SearchExecutionError,
    SubstrateBuildError,
    UnsupportedSchemaError,
    classify_error,
)
from repro.resilience.failpoints import FAILPOINTS, FailpointRegistry, fail_point

__all__ = [
    "QueryBudget",
    "make_budget",
    "KNOWN_METHODS",
    "FALLBACKS",
    "fallback_chain",
    "ReproError",
    "QueryParseError",
    "UnsupportedSchemaError",
    "BudgetExceededError",
    "SubstrateBuildError",
    "SearchExecutionError",
    "FaultInjectedError",
    "classify_error",
    "FAILPOINTS",
    "FailpointRegistry",
    "fail_point",
]
