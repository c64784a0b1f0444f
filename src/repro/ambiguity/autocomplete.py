"""TASTIER: type-ahead keyword search (Li et al., SIGMOD 09).

Slides 71-73.  Every query keyword is treated as a *prefix*.  The trie
maps each prefix to a contiguous token-id range; candidate tuples come
from the inverted lists of the tokens under the *most selective* prefix,
and the δ-step forward index prunes candidates that cannot reach the
remaining prefixes' ranges within δ hops (the slide-73 example:
candidates {11, 12, 78} pruned to {12} by Range(sig)).  Around each
surviving candidate a small answer tree is grown with bounded search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.graph.data_graph import DataGraph
from repro.index.distance import within_hops
from repro.index.forward import DeltaForwardIndex
from repro.index.inverted import InvertedIndex
from repro.index.trie import Trie
from repro.relational.database import TupleId
from repro.resilience.budget import QueryBudget, make_budget
from repro.resilience.errors import BudgetExceededError
from repro.resilience.failpoints import fail_point


@dataclass
class TastierResult:
    """Answers plus the work counters the E8 benchmark reports.

    ``degraded`` marks a budget-exhausted search: ``answers`` then holds
    the best partial ranking from the work done so far and ``reason``
    says which limit tripped.
    """

    answers: List[Tuple[TupleId, float]]
    candidates_initial: int
    candidates_after_pruning: int
    degraded: bool = False
    reason: Optional[str] = None


class Tastier:
    """Prefix-based keyword search with δ-forward-index pruning."""

    def __init__(
        self,
        graph: DataGraph,
        index: InvertedIndex,
        delta: int = 2,
        trie: Optional[Trie] = None,
    ):
        self.graph = graph
        self.index = index
        self.delta = delta
        self.trie = trie if trie is not None else Trie(index.vocabulary)
        self.forward = DeltaForwardIndex(graph, index, self.trie, delta=delta)

    # ------------------------------------------------------------------
    def _range(self, prefix: str) -> Optional[Tuple[int, int]]:
        return self.trie.prefix_range(prefix.lower())

    def _candidates_for(
        self,
        prefix_range: Tuple[int, int],
        budget: Optional[QueryBudget] = None,
    ) -> List[TupleId]:
        lo, hi = prefix_range
        seen: Dict[TupleId, None] = {}
        fail_point("tastier.scan")
        for token_id in range(lo, hi + 1):
            for tid in self.index.matching_tuples(self.trie.token(token_id)):
                if budget is not None:
                    budget.tick_candidates()
                seen.setdefault(tid)
        return list(seen)

    def _range_list_size(self, prefix_range: Tuple[int, int]) -> int:
        lo, hi = prefix_range
        return sum(
            self.index.document_frequency(self.trie.token(t))
            for t in range(lo, hi + 1)
        )

    def search(
        self,
        prefixes: Sequence[str],
        k: int = 10,
        budget: Optional[QueryBudget] = None,
    ) -> TastierResult:
        """Top-k answers for partially typed keywords.

        An answer is a node within δ hops of tuples matching every
        prefix, scored by its summed hop distance to the matches.

        When a :class:`QueryBudget` is given, every inverted-list
        posting scanned and every candidate grown ticks it; on
        exhaustion the best partial result accumulated so far is
        returned with ``degraded=True`` instead of raising, so an
        interactive caller always gets *something* to show.
        """
        ranges = []
        for prefix in prefixes:
            rng = self._range(prefix)
            if rng is None:
                return TastierResult([], 0, 0)
            ranges.append(rng)
        # Most selective prefix drives candidate generation.
        order = sorted(range(len(ranges)), key=lambda i: self._range_list_size(ranges[i]))
        anchor_range = ranges[order[0]]
        other_ranges = [ranges[i] for i in order[1:]]
        try:
            candidates = self._candidates_for(anchor_range, budget)
        except BudgetExceededError as exc:
            return TastierResult([], 0, 0, degraded=True, reason=str(exc))
        initial = len(candidates)
        try:
            if budget is not None:
                budget.checkpoint()
            pruned = self.forward.filter_candidates(candidates, other_ranges)
        except BudgetExceededError as exc:
            return TastierResult([], initial, 0, degraded=True, reason=str(exc))
        answers: List[Tuple[TupleId, float]] = []
        degraded = False
        reason: Optional[str] = None
        for candidate in pruned:
            if budget is not None:
                try:
                    budget.tick_nodes()
                except BudgetExceededError as exc:
                    degraded = True
                    reason = str(exc)
                    break
            cost = self._grow_cost(candidate, ranges)
            if cost is not None:
                answers.append((candidate, cost))
        answers.sort(key=lambda pair: (pair[1], pair[0]))
        return TastierResult(
            answers[:k], initial, len(pruned), degraded=degraded, reason=reason
        )

    def _grow_cost(
        self, candidate: TupleId, ranges: Sequence[Tuple[int, int]]
    ) -> Optional[float]:
        """Summed hop distance from candidate to each prefix's nearest match."""
        ids = self.graph.ids
        hops = within_hops(self.graph, (self.graph.index[candidate],), self.delta)
        total = 0.0
        for lo, hi in ranges:
            best = None
            for node, distance in hops.items():
                node_tokens = self.index.tokens_of(ids[node])
                direct = any(
                    lo <= self.trie.token_id(t) <= hi
                    for t in node_tokens
                    if t in self.trie
                )
                if direct and (best is None or distance < best):
                    best = distance
            if best is None:
                return None
            total += best
        return total

    def complete_keyword(self, prefix: str, limit: int = 8) -> List[str]:
        """Plain completion suggestions for the UI."""
        return self.trie.complete(prefix.lower(), limit=limit)


# ----------------------------------------------------------------------
# Over a search engine
# ----------------------------------------------------------------------
def suggest(engine, prefix: str, limit: int = 8) -> List[str]:
    """Type-ahead keyword completions from *engine*'s current vocabulary."""
    engine.refresh()
    return Trie(engine.index.vocabulary).complete(prefix.lower(), limit=limit)


def suggest_answers(
    engine,
    prefixes: Sequence[str],
    k: int = 10,
    budget: Optional[QueryBudget] = None,
    timeout_ms: Optional[float] = None,
    max_expansions: Optional[int] = None,
) -> TastierResult:
    """Budgeted TASTIER type-ahead answers over *engine*'s data graph.

    Threads an optional :class:`QueryBudget` (or the ``timeout_ms`` /
    ``max_expansions`` shorthands) through :meth:`Tastier.search`; on
    exhaustion the best partial :class:`TastierResult` comes back with
    ``degraded`` set instead of scanning the rest of the vocabulary
    range.
    """
    engine.refresh()
    if budget is None:
        budget = make_budget(timeout_ms, max_expansions)
    tastier = Tastier(engine.data_graph, engine.index)
    return tastier.search(list(prefixes), k=k, budget=budget)
