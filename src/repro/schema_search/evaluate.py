"""CN evaluation: turning a candidate network into joined results.

A CN evaluates to its *minimal total joining networks of tuples*
(DISCOVER): assignments of one tuple per CN node such that every edge's
join predicate holds and no tuple occurs twice (a repeated tuple means
the result collapses into a smaller CN's result).

There is one join engine, the served executor's index nested-loop over
the tables' own PK/FK indexes (:class:`~repro.schema_search.topk.CNCursor`).
Exhaustive evaluation drains the cursors of one
:class:`~repro.schema_search.topk.CNQueryContext` with no floor, so no
slice prunes anything: every anchor tuple is visited and every result
produced, in anchor-score order.  Results carry aliases
``n0..n{size-1}`` in CN node-index order, so downstream consumers
(scoring, the operator mesh parity tests, result signatures) see a
stable shape.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.relational.executor import JoinedRow, JoinStats
from repro.resilience.budget import QueryBudget
from repro.resilience.errors import BudgetExceededError
from repro.schema_search.candidate_networks import CandidateNetwork
from repro.schema_search.plans import bfs_join_order
from repro.schema_search.topk import CNQueryContext
from repro.schema_search.tuple_sets import TupleSets


def _context(
    cns: Sequence[CandidateNetwork], tuple_sets: TupleSets
) -> CNQueryContext:
    """One query context over *cns*, every CN validated first: a
    malformed one raises :class:`SearchExecutionError` before any work."""
    for cn in cns:
        bfs_join_order(cn)
    return CNQueryContext(cns, tuple_sets, tuple_sets.index, tuple_sets.keywords)


def _drain(
    context: CNQueryContext,
    stats: Optional[JoinStats],
    budget: Optional[QueryBudget],
) -> Iterator[Tuple[CandidateNetwork, JoinedRow]]:
    """Every result of every CN of *context*, one candidate charged each."""
    stats = stats if stats is not None else JoinStats()
    for cursor in context.cursors():
        plan = cursor.plan
        while not cursor.exhausted():
            for _, rowids in cursor.next_batch(stats):
                if budget is not None:
                    budget.tick_candidates()
                yield plan.cn, plan.joined(rowids)


def evaluate_cn(
    cn: CandidateNetwork,
    tuple_sets: TupleSets,
    stats: Optional[JoinStats] = None,
    budget: Optional[QueryBudget] = None,
) -> Iterator[JoinedRow]:
    """Stream the joining networks of tuples for *cn*.

    The optional ``stats`` accumulates index probes / tuples read (the
    cost proxy the E2/E3 benchmarks report).  Each emitted result
    charges *budget* one scored candidate; consumers that want
    partial-on-exhaustion semantics should use :func:`cn_results` /
    :func:`all_results`, which catch the raise.  A malformed CN (wrong
    edge count, bad endpoints, disconnected) raises
    :class:`~repro.resilience.errors.SearchExecutionError` immediately.
    """
    context = _context([cn], tuple_sets)
    return (joined for _, joined in _drain(context, stats, budget))


def cn_results(
    cn: CandidateNetwork,
    tuple_sets: TupleSets,
    stats: Optional[JoinStats] = None,
    budget: Optional[QueryBudget] = None,
) -> List[JoinedRow]:
    """Materialised results of one CN (partial if the budget runs out)."""
    out: List[JoinedRow] = []
    try:
        for joined in evaluate_cn(cn, tuple_sets, stats=stats, budget=budget):
            out.append(joined)
    except BudgetExceededError:
        pass
    return out


def all_results(
    cns: Sequence[CandidateNetwork],
    tuple_sets: TupleSets,
    stats: Optional[JoinStats] = None,
    budget: Optional[QueryBudget] = None,
) -> List[Tuple[CandidateNetwork, JoinedRow]]:
    """Every CN's results, in CN order: (cn, result) pairs (partial on budget)."""
    out: List[Tuple[CandidateNetwork, JoinedRow]] = []
    try:
        for pair in _drain(_context(cns, tuple_sets), stats, budget):
            out.append(pair)
    except BudgetExceededError:
        pass
    return out
