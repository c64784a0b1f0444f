"""The ``schema`` executor this repo shipped before joins went through
the tables' own indexes, kept verbatim as the oracle for
``test_schema_executor.py`` (the ``cn_reference.py`` pattern).

It materialises a ``Row`` for every member of every tuple set a CN joins
into (``tuple_sets.rows(key)`` — the whole table for a free node),
builds a hash map over them per ``(tuple set, column)``, produces every
result of a slice as a list of ``Row`` objects and wraps each one that
clears the floor in a ``JoinedRow`` before the heap sees it — slow, and
obviously the definition.  Two additions: :func:`reference_topk`, the
parent's ``topk_global_pipeline`` without its tracing, over one or
several anchor filters; and :class:`BuildSideStats`, the counters this
executor's shared build sides wrote, which the engine's
:class:`JoinStats` no longer carries.
"""

from __future__ import annotations

import heapq
import math
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.index.inverted import InvertedIndex
from repro.relational.database import TupleId
from repro.relational.executor import JoinedRow, JoinStats
from repro.relational.table import Row
from repro.resilience.budget import QueryBudget
from repro.resilience.errors import BudgetExceededError
from repro.schema_search.candidate_networks import CandidateNetwork
from repro.schema_search.scoring import tuple_score
from repro.schema_search.tuple_sets import TupleSetKey, TupleSets

_NEG_INF = float("-inf")


@dataclass
class BuildSideStats(JoinStats):
    """:class:`JoinStats` plus the build-side sharing counters:
    ``subexpressions_materialized`` build sides built, ``joins_saved``
    builds another CN's side spared, ``reuse_hits`` plans that reused
    at least one."""

    reuse_hits: int = 0
    joins_saved: int = 0
    subexpressions_materialized: int = 0


AnchorQueue = List[Tuple[float, TupleId]]
BuildSide = Dict[object, List[Row]]
ScoredPartial = Tuple[float, List[Row]]  # rows in the plan's join order


class _CNPlan:
    """Everything about one CN that does not depend on who advances it."""

    __slots__ = (
        "label",
        "aliases",
        "denom",
        "anchor_key",
        "queue",
        "bound_pre",
        "bound_post",
        "steps",
        "perm",
        "same_table",
        "scored",
        "sides",
    )


class CNQueryContext:
    """Per-query state shared by every CN and every shard worker.

    Built once per query and dropped with it — nothing here is patched
    on the insert path.  Holds the score table, the rows and join build
    sides of each tuple set (materialised on first probe, under a lock,
    read-only afterwards) and one :class:`_CNPlan` per CN.
    """

    def __init__(
        self,
        cns: Sequence[CandidateNetwork],
        tuple_sets: TupleSets,
        index: InvertedIndex,
        keywords: Sequence[str],
    ):
        self.tuple_sets = tuple_sets
        self.index = index
        self.keywords = list(keywords)
        self.tuples_scored = 0
        self._scored: Dict[TupleSetKey, Tuple[Dict[int, float], AnchorQueue]] = {}
        self._rows: Dict[TupleSetKey, List[Row]] = {}
        self._sides: Dict[Tuple[TupleSetKey, str], BuildSide] = {}
        self._lock = threading.Lock()
        self.plans: List[_CNPlan] = [self._plan(cn) for cn in cns]

    # ------------------------------------------------------------------
    # Score table
    # ------------------------------------------------------------------
    def _score(self, key: TupleSetKey) -> Tuple[Dict[int, float], AnchorQueue]:
        """Score the members of *key*, each exactly once.

        Returns the rowid -> score map results are summed from and the
        members by (score desc, tuple id asc) — the anchor queue, whose
        head is the tuple set's maximum.
        """
        scored = self._scored.get(key)
        if scored is None:
            index, keywords = self.index, self.keywords
            scores = {
                tid.rowid: tuple_score(index, tid, keywords)
                for tid in self.tuple_sets.tuple_ids(key)
            }
            ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
            queue = [(score, TupleId(key.table, rowid)) for rowid, score in ranked]
            scored = self._scored[key] = (scores, queue)
            self.tuples_scored += len(scores)
        return scored

    # ------------------------------------------------------------------
    # Per-CN plans
    # ------------------------------------------------------------------
    def _plan(self, cn: CandidateNetwork) -> _CNPlan:
        tuple_sets = self.tuple_sets
        nodes = cn.nodes
        size = len(nodes)
        adj = cn.adjacency()
        plan = _CNPlan()
        plan.label = cn.label()
        plan.aliases = tuple(f"n{i}" for i in range(size))
        plan.denom = 1.0 + math.log(size)
        plan.sides = None
        non_free = [i for i, node in enumerate(nodes) if not node.is_free]
        # Anchor: the non-free node with the most tuples (finest slicing).
        anchor = max(non_free, key=lambda i: tuple_sets.size(nodes[i].key))
        plan.anchor_key = nodes[anchor].key
        scored = [self._score(nodes[i].key) for i in non_free]
        at = non_free.index(anchor)
        plan.queue = scored[at][1]
        # The bound sums per-node maxima in node-index order with the
        # anchor's score in its slot: the association a result's own
        # score uses, so by monotonicity of float addition the bound is
        # never below the score of any result of the slice.
        node_max = [queue[0][0] if queue else 0.0 for _, queue in scored]
        pre = 0.0
        for value in node_max[:at]:
            pre += value
        plan.bound_pre = pre
        plan.bound_post = node_max[at + 1 :]
        # Join order: outwards from the anchor; each step probes the
        # build side of its node with a column of an earlier position.
        position = {anchor: 0}
        plan.steps = []
        order = [anchor]
        for node_idx in order:  # grows as neighbours are discovered
            table = nodes[node_idx].table
            for nbr, edge in adj[node_idx]:
                if nbr in position:
                    continue
                left_col, right_col = edge.join_columns(table)
                left_at = tuple_sets.db.table(table).column_index(left_col)
                plan.steps.append(
                    (position[node_idx], left_at, nodes[nbr].key, right_col)
                )
                position[nbr] = len(position)
                order.append(nbr)
        # Partial results are lists of rows in join order; everything
        # the per-result loop needs is addressed by join position.
        plan.perm = tuple(position[i] for i in range(size))
        plan.scored = [
            (position[i], scores) for i, (scores, _) in zip(non_free, scored)
        ]
        plan.same_table = [
            (position[i], position[j])
            for i in range(size)
            for j in range(i + 1, size)
            if nodes[i].table == nodes[j].table
        ]
        return plan

    # ------------------------------------------------------------------
    # Shared build sides
    # ------------------------------------------------------------------
    def resolve(self, plan: _CNPlan, stats: BuildSideStats) -> List[BuildSide]:
        """The plan's build sides, one per join step, built at most once.

        The caller that triggers a build pays its ``tuples_read``; a
        side another CN already built counts as a join saved.
        """
        with self._lock:
            if plan.sides is None:
                sides = []
                reused = 0
                for _, _, key, column in plan.steps:
                    side = self._sides.get((key, column))
                    if side is None:
                        side = self._sides[(key, column)] = {}
                        rows = self._rows.get(key)
                        if rows is None:
                            rows = self._rows[key] = self.tuple_sets.rows(key)
                            stats.tuples_read += len(rows)
                        at = rows[0].table.column_index(column) if rows else 0
                        for row in rows:
                            value = row.values[at]
                            if value is not None:
                                side.setdefault(value, []).append(row)
                        stats.subexpressions_materialized += 1
                    else:
                        reused += 1
                    sides.append(side)
                if reused:
                    stats.reuse_hits += 1
                    stats.joins_saved += reused
                plan.sides = sides
            return plan.sides

    # ------------------------------------------------------------------
    # Cursors
    # ------------------------------------------------------------------
    def cursors(
        self, anchor_filter: Optional[Callable[[TupleId], bool]] = None
    ) -> List["CNCursor"]:
        """One cursor per CN, in CN order.

        With *anchor_filter* each cursor scans only the anchor tuples
        the filter accepts: the cursors of a partition of the tuple
        space jointly produce exactly what unfiltered cursors produce.
        """
        if anchor_filter is None:
            return [CNCursor(self, plan, plan.queue) for plan in self.plans]
        owned: Dict[TupleSetKey, AnchorQueue] = {}
        out = []
        for plan in self.plans:
            queue = owned.get(plan.anchor_key)
            if queue is None:
                queue = owned[plan.anchor_key] = [
                    pair for pair in plan.queue if anchor_filter(pair[1])
                ]
            out.append(CNCursor(self, plan, queue))
        return out


class CNCursor:
    """One evaluator's position in one CN's anchor queue."""

    __slots__ = ("context", "plan", "queue", "pos")

    def __init__(self, context: CNQueryContext, plan: _CNPlan, queue: AnchorQueue):
        self.context = context
        self.plan = plan
        self.queue = queue
        self.pos = 0

    def exhausted(self) -> bool:
        return self.pos >= len(self.queue)

    def remaining(self) -> int:
        """Anchor tuples not yet evaluated (prunable work)."""
        return len(self.queue) - self.pos

    def bound(self) -> float:
        """Upper bound on the score of any not-yet-produced result."""
        if self.pos >= len(self.queue):
            return _NEG_INF
        plan = self.plan
        total = plan.bound_pre + self.queue[self.pos][0]
        for value in plan.bound_post:
            total += value
        return total / plan.denom

    def next_batch(self, stats: BuildSideStats) -> List[ScoredPartial]:
        """All results anchored at the next anchor tuple, scored."""
        if self.pos >= len(self.queue):
            return []
        plan = self.plan
        sides = plan.sides
        if sides is None:
            sides = self.context.resolve(plan, stats)
        anchor_tid = self.queue[self.pos][1]
        self.pos += 1
        partials = [[self.context.tuple_sets.db.row(anchor_tid)]]
        read = 1
        for (parent_at, left_at, _, _), side in zip(plan.steps, sides):
            stats.joins_executed += len(partials)
            extended = []
            for partial in partials:
                value = partial[parent_at].values[left_at]
                matches = side.get(value) if value is not None else None
                if matches:
                    read += len(matches)
                    for match in matches:
                        extended.append(partial + [match])
            partials = extended
            if not partials:
                break
        stats.tuples_read += read
        same_table, scored, denom = plan.same_table, plan.scored, plan.denom
        out: List[ScoredPartial] = []
        for partial in partials:
            for a, b in same_table:
                if partial[a].rowid == partial[b].rowid:
                    break  # repeated tuple -> collapses into a smaller CN
            else:
                total = 0.0
                for at, scores in scored:
                    total += scores[partial[at].rowid]
                out.append((total / denom, partial))
        stats.tuples_emitted += len(out)
        return out

    def joined(self, partial: List[Row]) -> JoinedRow:
        """A produced result as a :class:`JoinedRow` in CN node order."""
        plan = self.plan
        return JoinedRow(plan.aliases, tuple(partial[p] for p in plan.perm))


class _RevKey:
    """Content tie-break key with reversed comparison.

    Inside the min-heap the *worst* entry sits at the top; among equal
    scores that should be the entry with the lexicographically largest
    content key, so that the retained top-k (and hence the final result
    list) does not depend on offer order — workers may deliver results
    in any interleaving.
    """

    __slots__ = ("key",)

    def __init__(self, key: Tuple):
        self.key = key

    def __lt__(self, other: "_RevKey") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _RevKey) and other.key == self.key


class _TopKHeap:
    """Fixed-capacity min-heap over (score, content tiebreak, payload).

    Retention follows the exact total order *(score desc, content key
    asc)* where the content key is ``(CN label, tuple ids)``: the heap
    always holds the k largest offered entries under that order, so the
    final top-k is a pure function of the offered multiset — no matter
    the order entries arrive in (deterministic across repeated, batched,
    parallel and sharded runs).  Comparisons are exact, never
    epsilon-fuzzy: near-equal scores (e.g. permutations of one answer
    summed in different orders) would make fuzzy tie classes
    non-transitive and the outcome arrival-order-dependent.  Exactness
    also makes :meth:`kth_score` monotone non-decreasing, which the
    bound-ordered loop relies on for pruning.
    """

    def __init__(self, k: int):
        self.k = k
        self._heap: List[Tuple[float, _RevKey, str, JoinedRow]] = []

    def offer(self, score: float, label: str, joined: JoinedRow) -> None:
        if len(self._heap) < self.k:
            key = (label, joined.tuple_ids())
            heapq.heappush(self._heap, (score, _RevKey(key), label, joined))
            return
        kth_score = self._heap[0][0]
        if score < kth_score:
            return
        key = (label, joined.tuple_ids())
        if score > kth_score or key < self._heap[0][1].key:
            heapq.heapreplace(self._heap, (score, _RevKey(key), label, joined))

    def kth_score(self) -> float:
        if len(self._heap) < self.k:
            return _NEG_INF
        return self._heap[0][0]

    def sorted_results(self) -> List[Tuple[float, str, JoinedRow]]:
        ordered = sorted(self._heap, key=lambda e: (-e[0], e[1].key))
        return [(score, label, joined) for score, _, label, joined in ordered]


@dataclass
class PipelineRun:
    """What one pass of :func:`run_bound_ordered` did."""

    batches: int = 0
    cns_executed: int = 0
    produced: int = 0  # candidate results produced (and budget-charged)
    pruned: int = 0  # anchor slots skipped via the threshold
    exhausted: bool = False  # the budget ran out; results are partial


def run_bound_ordered(
    cursors: Sequence[CNCursor],
    offer: Callable[[float, str, JoinedRow], None],
    threshold: Callable[[], float],
    stats: BuildSideStats,
    budget: Optional[QueryBudget] = None,
) -> PipelineRun:
    """Advance the cursor with the highest bound until none can matter.

    *threshold* is the current k-th score of whatever *offer* feeds —
    the caller's own heap, or the global heap every shard worker shares.
    It only ever rises, so a result below the value read before a slice
    can never enter the final top-k and is not materialised; a slice
    whose bound is strictly below it ends the run (every queued cursor
    bounds lower still).  Each produced result charges *budget* one
    candidate, each slice one node expansion; on exhaustion the run
    returns with ``exhausted`` set and the heap holds a partial top-k.
    """
    run = PipelineRun()
    pq = [
        (-cursor.bound(), i, cursor)
        for i, cursor in enumerate(cursors)
        if not cursor.exhausted()
    ]
    heapq.heapify(pq)
    try:
        while pq:
            neg_bound, i, cursor = pq[0]
            floor = threshold()
            if -neg_bound < floor:
                run.pruned = sum(c.remaining() for _, _, c in pq)
                break
            label = cursor.plan.label
            for score, partial in cursor.next_batch(stats):
                run.produced += 1
                if budget is not None:
                    budget.tick_candidates()
                if score >= floor:
                    offer(score, label, cursor.joined(partial))
            run.batches += 1
            if budget is not None:
                budget.tick_nodes()
            if cursor.exhausted():
                heapq.heappop(pq)
            else:
                heapq.heapreplace(pq, (-cursor.bound(), i, cursor))
    except BudgetExceededError:
        run.exhausted = True
    run.cns_executed = sum(1 for cursor in cursors if cursor.pos)
    return run


def reference_topk(
    cns: Sequence[CandidateNetwork],
    tuple_sets: TupleSets,
    index: InvertedIndex,
    keywords: Sequence[str],
    k: int,
    budget: Optional[QueryBudget] = None,
    anchor_filters: Sequence[Optional[Callable[[TupleId], bool]]] = (None,),
) -> Tuple[List[Tuple[float, str, JoinedRow]], List[PipelineRun]]:
    """The parent's engine path — one context, one heap, the bound loop —
    once per anchor filter, in turn (a sequential scatter)."""
    heap = _TopKHeap(k)
    context = CNQueryContext(cns, tuple_sets, index, keywords)
    runs = [
        run_bound_ordered(
            context.cursors(anchor_filter), heap.offer, heap.kth_score, BuildSideStats(), budget
        )
        for anchor_filter in anchor_filters
    ]
    return heap.sorted_results(), runs
