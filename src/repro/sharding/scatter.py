"""Scatter-gather execution primitives for the sharded engine.

* :class:`GlobalTopK` — the gather side: one lock-guarded
  :class:`~repro.schema_search.topk._TopKHeap` shared by every shard
  worker.  Its ``threshold()`` is the current global k-th score, which
  only ever rises — the monotonically tightening bound the shards
  prune against.
* :func:`scatter_schema` — one shard's pass of the engine's own
  bound-ordered loop (:func:`~repro.schema_search.topk.run_bound_ordered`)
  over its slice of each CN's anchor queue, offering into the global
  heap and pruning against the global threshold.

Why the merged top-k is byte-identical to the single engine's: the
heap retains the exact top-k of the *offered multiset* under the total
order (score desc, content key asc) independent of offer order, shard
anchor slices partition the global anchor queue of each CN, and a
pruned anchor slot's answers score strictly below the threshold at
prune time ≤ the final k-th score (exact comparisons make the
threshold monotone non-decreasing), so none of them can enter the
final heap or win an equal-score key tie-break.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.relational.database import TupleId
from repro.relational.executor import JoinedRow, JoinStats
from repro.resilience.budget import QueryBudget
from repro.schema_search.topk import (
    CNQueryContext,
    _CNPlan,
    _TopKHeap,
    run_bound_ordered,
)


class GlobalTopK:
    """Thread-safe streaming top-k merger with a rising threshold."""

    def __init__(self, k: int):
        self.k = k
        self._heap = _TopKHeap(k)
        self._lock = threading.Lock()
        self.offers = 0

    def offer(self, score: float, plan: _CNPlan, rowids: List[int]) -> None:
        """An executor candidate: *rowids* in *plan*'s join order."""
        with self._lock:
            self.offers += 1
            self._heap.offer_rowids(score, plan, rowids)

    def threshold(self) -> float:
        """Current global k-th score (``-inf`` until the heap fills)."""
        with self._lock:
            return self._heap.kth_score()

    def sorted_results(self) -> List[Tuple[float, str, JoinedRow]]:
        with self._lock:
            return self._heap.sorted_results()


@dataclass
class ShardRunStats:
    """What one shard did for one scattered query."""

    shard_id: int
    evaluated: int = 0  # candidate results produced and offered
    pruned: int = 0  # anchor slots skipped via the global threshold
    cns: int = 0  # CNs with a non-empty anchor slice on this shard
    join_stats: JoinStats = field(default_factory=JoinStats)


def scatter_schema(
    shard_id: int,
    owns: Callable[[TupleId], bool],
    context: CNQueryContext,
    gtopk: GlobalTopK,
    budget: Optional[QueryBudget] = None,
) -> ShardRunStats:
    """Evaluate this shard's anchor slices against the global threshold.

    Skipped anchor slots are accounted as ``pruned``; budget exhaustion
    returns the partial stats — never an exception — and the caller
    reads it off *budget* (the shard's fork).
    """
    run = ShardRunStats(shard_id)
    cursors = context.cursors(anchor_filter=owns)
    run.cns = sum(1 for cursor in cursors if not cursor.exhausted())
    done = run_bound_ordered(
        cursors, gtopk.offer, gtopk.threshold, run.join_stats, budget
    )
    run.evaluated = done.produced
    run.pruned = done.pruned
    return run
