"""Per-query budgets: wall-clock deadline plus cooperative work counters.

Steiner-tree search and candidate-network enumeration are worst-case
exponential, so an unbounded query can stall a serving thread.  A
:class:`QueryBudget` bounds one query with a deadline and three work
counters (graph nodes expanded, CNs enumerated, candidates scored).
The search algorithms call the cheap ``tick_*`` methods inside their
hot loops; when a limit is crossed the tick raises
:class:`~repro.resilience.errors.BudgetExceededError`, which the
algorithm catches to return the best partial results found so far.
The budget object records ``exhausted`` / ``reason``, so the engine can
flag the result set as degraded without the algorithms having to thread
extra return values around.

Deadline checks cost a clock read, so they run on the first tick and
then every ``deadline_check_every`` ticks; counter checks are plain
integer compares and run on every tick.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

from repro.resilience.errors import BudgetExceededError


class QueryBudget:
    """Cooperative budget for one query (not shared across threads)."""

    __slots__ = (
        "timeout_ms",
        "max_nodes",
        "max_cns",
        "max_candidates",
        "nodes_expanded",
        "cns_enumerated",
        "candidates_scored",
        "exhausted",
        "reason",
        "_poisoned",
        "_forks",
        "_clock",
        "_t0",
        "_deadline",
        "_ops",
        "_every",
    )

    def __init__(
        self,
        timeout_ms: Optional[float] = None,
        max_nodes: Optional[int] = None,
        max_cns: Optional[int] = None,
        max_candidates: Optional[int] = None,
        *,
        clock: Callable[[], float] = time.monotonic,
        deadline_check_every: int = 32,
    ):
        self.timeout_ms = timeout_ms
        self.max_nodes = max_nodes
        self.max_cns = max_cns
        self.max_candidates = max_candidates
        self._clock = clock
        self._t0 = clock()
        self._deadline = (
            None if timeout_ms is None else self._t0 + timeout_ms / 1000.0
        )
        self._every = max(1, deadline_check_every)
        self.nodes_expanded = 0
        self.cns_enumerated = 0
        self.candidates_scored = 0
        self.exhausted = False
        self.reason: Optional[str] = None
        self._poisoned = False
        self._forks: List["QueryBudget"] = []
        self._ops = 0

    # ------------------------------------------------------------------
    # Hot-loop ticks
    # ------------------------------------------------------------------
    def _fail(self, reason: str) -> None:
        self.exhausted = True
        if self.reason is None:
            self.reason = reason
        raise BudgetExceededError(self.reason, budget=self)

    def _tick(self) -> None:
        if self.exhausted:
            self._fail(self.reason or "budget exhausted")
        if self._deadline is not None:
            self._ops += 1
            if self._ops == 1 or self._ops % self._every == 0:
                if self._clock() >= self._deadline:
                    self._fail(f"deadline exceeded ({self.timeout_ms:g} ms)")

    def tick_nodes(self, n: int = 1) -> None:
        """Charge *n* graph node expansions."""
        self.nodes_expanded += n
        if self.max_nodes is not None and self.nodes_expanded > self.max_nodes:
            self._fail(f"node expansion budget exhausted ({self.max_nodes})")
        self._tick()

    def tick_cns(self, n: int = 1) -> None:
        """Charge *n* candidate networks enumerated."""
        self.cns_enumerated += n
        if self.max_cns is not None and self.cns_enumerated > self.max_cns:
            self._fail(f"CN enumeration budget exhausted ({self.max_cns})")
        self._tick()

    def tick_candidates(self, n: int = 1) -> None:
        """Charge *n* candidate results scored."""
        self.candidates_scored += n
        if (
            self.max_candidates is not None
            and self.candidates_scored > self.max_candidates
        ):
            self._fail(f"candidate scoring budget exhausted ({self.max_candidates})")
        self._tick()

    def checkpoint(self) -> None:
        """Deadline-only check for loops with no natural work counter."""
        self._tick()

    # ------------------------------------------------------------------
    # Lifecycle & observability
    # ------------------------------------------------------------------
    def poison(self, reason: str = "cancelled") -> None:
        """Cancel the query from another thread: every next tick fails.

        The serving front end calls this when the client abandons a
        request (disconnect, shutdown drain): the worker thread running
        the query hits its next cooperative tick, raises
        :class:`BudgetExceededError`, and unwinds with whatever partial
        answer it has — which the server then discards.  Unlike plain
        exhaustion, poisoning survives :meth:`renew`, so a cancelled
        query cannot resurrect itself by descending the degradation
        ladder.  Safe to call from any thread (worst case the worker
        sees the flags one tick late).
        """
        self._poisoned = True
        self.exhausted = True
        if self.reason is None:
            self.reason = reason
        for child in self._forks:
            child.poison(reason)

    def fork(self) -> "QueryBudget":
        """A budget for one parallel worker of this query.

        The fork shares this budget's absolute deadline and caps but
        counts its own work, so each worker ticks a private object (a
        budget is not shared across threads) while the query as a
        whole still ends when the caller's deadline does.
        :meth:`poison` reaches every fork, made before or after the
        call; :meth:`renew` on the parent leaves forks untouched.
        """
        child = QueryBudget(
            self.timeout_ms,
            self.max_nodes,
            self.max_cns,
            self.max_candidates,
            clock=self._clock,
            deadline_check_every=self._every,
        )
        child._t0 = self._t0
        child._deadline = self._deadline
        # Register first, then read the flag: poison() sets the flag
        # before it walks the list, so a racing cancel is seen by one
        # side or the other.
        self._forks.append(child)
        if self._poisoned:
            child.poison(self.reason or "cancelled")
        return child

    @property
    def poisoned(self) -> bool:
        return self._poisoned

    def renew(self) -> "QueryBudget":
        """Reset counters and the exhausted flag; the deadline persists.

        Used between rungs of the degradation ladder: each cheaper
        method gets fresh work counters but shares the wall clock.  A
        :meth:`poison`-cancelled budget stays exhausted: there is no
        rung cheap enough for a client that already hung up.
        """
        self.nodes_expanded = 0
        self.cns_enumerated = 0
        self.candidates_scored = 0
        if not self._poisoned:
            self.exhausted = False
            self.reason = None
        self._ops = 0
        return self

    def elapsed_ms(self) -> float:
        return (self._clock() - self._t0) * 1000.0

    def remaining_ms(self) -> Optional[float]:
        if self._deadline is None:
            return None
        return max(0.0, (self._deadline - self._clock()) * 1000.0)

    def snapshot(self) -> Dict[str, object]:
        return {
            "timeout_ms": self.timeout_ms,
            "elapsed_ms": round(self.elapsed_ms(), 3),
            "nodes_expanded": self.nodes_expanded,
            "cns_enumerated": self.cns_enumerated,
            "candidates_scored": self.candidates_scored,
            "exhausted": self.exhausted,
            "poisoned": self._poisoned,
            "reason": self.reason,
        }

    def __repr__(self) -> str:
        state = f"exhausted: {self.reason}" if self.exhausted else "ok"
        return (
            f"QueryBudget(nodes={self.nodes_expanded}, cns={self.cns_enumerated}, "
            f"candidates={self.candidates_scored}, {state})"
        )


def make_budget(
    timeout_ms: Optional[float] = None,
    max_expansions: Optional[int] = None,
) -> Optional[QueryBudget]:
    """Budget from the two user-facing knobs, or None when unbounded.

    ``max_expansions`` bounds every work counter — it is a generic
    "units of work" cap for callers that don't care which loop burns it.
    """
    if timeout_ms is None and max_expansions is None:
        return None
    return QueryBudget(
        timeout_ms=timeout_ms,
        max_nodes=max_expansions,
        max_cns=max_expansions,
        max_candidates=max_expansions,
    )
