"""Top-k CN evaluation: one score-once, bound-driven executor.

Slide 116 (DISCOVER2, Hristidis+ VLDB 03): under a monotonic score, CN
evaluation can stop at the k-th score.  Everything that answers a
``schema`` query — the single engine, the structured compiler and the
sharded scatter — runs :func:`run_bound_ordered` over one per-query
:class:`CNQueryContext`:

* **Score table** — ``tuple_score`` runs once per member of each
  non-free tuple set the query's CNs use.  Free tuple sets hold no
  query keyword, so their rows score exactly ``0.0``.  A result's score
  is the sum of table entries in CN node-index order divided by
  ``1 + ln(size)`` — the additions ``monotonic_result_score`` performs,
  in the same order, hence bit-identical.
* **Shared build sides** — join hash maps are keyed
  ``(tuple set, column)``, built on first probe and shared by every CN
  (and every shard worker) that joins into that tuple set.
* **Bound-ordered loop** — the execution slice is one *anchor tuple*
  (the CN's largest non-free node, scanned in descending score); a
  priority queue always advances the CN whose next slice has the
  highest score upper bound and stops once that bound is *strictly*
  below the k-th score, so an equal-score answer with a smaller content
  key is still found: the top-k equals exhaustive evaluation, ties at
  the k-th score included.

The four VLDB 03 strategies the paper contrasts (E2) are stop policies
over the same cursors: **naive** never stops, **sparse** skips whole
CNs, **single pipeline** also stops inside a CN, **global pipeline** is
the bound-ordered loop itself.  :func:`topk_shared` keeps the
operator-sharing evaluator of slides 129-134 as library code for
E12/E20.
"""

from __future__ import annotations

import heapq
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.index.inverted import InvertedIndex
from repro.obs.trace import span as trace_span
from repro.relational.database import TupleId
from repro.relational.executor import JoinedRow, JoinStats
from repro.relational.table import Row
from repro.resilience.budget import QueryBudget
from repro.resilience.errors import BudgetExceededError
from repro.schema_search.candidate_networks import CandidateNetwork
from repro.schema_search.evaluate import SharedCNEvaluator
from repro.schema_search.scoring import monotonic_result_score, tuple_score
from repro.schema_search.tuple_sets import TupleSetKey, TupleSets

EPS = 1e-9
_NEG_INF = float("-inf")

AnchorQueue = List[Tuple[float, TupleId]]
BuildSide = Dict[object, List[Row]]
ScoredPartial = Tuple[float, List[Row]]  # rows in the plan's join order


@dataclass
class TopKResult:
    """Outcome of one strategy run."""

    results: List[Tuple[float, str, JoinedRow]]
    stats: JoinStats
    cns_executed: int = 0
    batches: int = 0

    def scores(self) -> List[float]:
        return [round(score, 9) for score, _, _ in self.results]


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
    def resolve(self, plan: _CNPlan, stats: JoinStats) -> List[BuildSide]:
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

    def next_batch(self, stats: JoinStats) -> List[ScoredPartial]:
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
    stats: JoinStats,
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


def _drain(
    cursor: CNCursor, heap: _TopKHeap, stats: JoinStats, stop_at_bound: bool = False
) -> int:
    """Run *cursor* to exhaustion, or until its bound falls; slices run."""
    label = cursor.plan.label
    batches = 0
    while not cursor.exhausted():
        if stop_at_bound and cursor.bound() <= heap.kth_score() + EPS:
            break
        for score, partial in cursor.next_batch(stats):
            heap.offer(score, label, cursor.joined(partial))
        batches += 1
    return batches


def topk_naive(
    cns: Sequence[CandidateNetwork],
    tuple_sets: TupleSets,
    index: InvertedIndex,
    keywords: Sequence[str],
    k: int = 10,
) -> TopKResult:
    """Evaluate everything, then cut."""
    stats = JoinStats()
    heap = _TopKHeap(k)
    batches = 0
    for cursor in CNQueryContext(cns, tuple_sets, index, keywords).cursors():
        batches += _drain(cursor, heap, stats)
    return TopKResult(heap.sorted_results(), stats, cns_executed=len(cns), batches=batches)


def _topk_sorted(cns, tuple_sets, index, keywords, k, stop_at_bound) -> TopKResult:
    """CNs in descending bound order, skipping those that cannot matter."""
    stats = JoinStats()
    heap = _TopKHeap(k)
    cursors = CNQueryContext(cns, tuple_sets, index, keywords).cursors()
    cursors.sort(key=lambda c: -c.bound())
    executed = 0
    batches = 0
    for cursor in cursors:
        if cursor.bound() <= heap.kth_score() + EPS:
            continue
        executed += 1
        batches += _drain(cursor, heap, stats, stop_at_bound)
    return TopKResult(heap.sorted_results(), stats, cns_executed=executed, batches=batches)


def topk_sparse(
    cns: Sequence[CandidateNetwork],
    tuple_sets: TupleSets,
    index: InvertedIndex,
    keywords: Sequence[str],
    k: int = 10,
) -> TopKResult:
    """Skip whole CNs whose bound cannot reach the current k-th score."""
    return _topk_sorted(cns, tuple_sets, index, keywords, k, False)


def topk_single_pipeline(
    cns: Sequence[CandidateNetwork],
    tuple_sets: TupleSets,
    index: InvertedIndex,
    keywords: Sequence[str],
    k: int = 10,
) -> TopKResult:
    """Sparse + early stop inside each CN when its own bound falls."""
    return _topk_sorted(cns, tuple_sets, index, keywords, k, True)


def topk_global_pipeline(
    cns: Sequence[CandidateNetwork],
    tuple_sets: TupleSets,
    index: InvertedIndex,
    keywords: Sequence[str],
    k: int = 10,
    budget: Optional[QueryBudget] = None,
    tracer=None,
) -> TopKResult:
    """Always advance the CN with the highest remaining bound.

    The engine's ``schema`` executor: :func:`run_bound_ordered` over a
    fresh :class:`CNQueryContext` and a private heap.  On budget
    exhaustion the heap contents are returned (a valid but possibly
    incomplete top-k — the budget's ``exhausted`` flag says so).

    With *tracer* set, building the context gets a ``plan`` span with
    the score table as its ``score`` child, the loop an ``evaluate``
    span, and the time spent offering results to the heap accumulates
    into a ``topk`` child (it overlaps ``evaluate`` — the pipeline
    interleaves them by design).  Tracing never changes the evaluation
    order, so results are byte-identical with it on or off.
    """
    stats = JoinStats()
    heap = _TopKHeap(k)
    with trace_span(tracer, "plan") as psp:
        with trace_span(tracer, "score") as ssp:
            context = CNQueryContext(cns, tuple_sets, index, keywords)
            ssp.add("tuples", context.tuples_scored)
        cursors = context.cursors()
        psp.add("cns", len(cns)).add(
            "viable", sum(1 for c in cursors if not c.exhausted())
        )
    offer = heap.offer
    if tracer is not None:
        topk = [0.0, 0]

        def offer(score: float, label: str, joined: JoinedRow) -> None:
            t0 = time.perf_counter()
            heap.offer(score, label, joined)
            topk[0] += time.perf_counter() - t0
            topk[1] += 1

    with trace_span(tracer, "evaluate") as esp:
        run = run_bound_ordered(cursors, offer, heap.kth_score, stats, budget)
        esp.add("batches", run.batches).add("cns_executed", run.cns_executed)
        esp.add("produced", run.produced).add("pruned", run.pruned)
        if tracer is not None:
            tracer.record("topk", topk[0], {"offers": topk[1]})
    return TopKResult(
        heap.sorted_results(), stats, cns_executed=run.cns_executed, batches=run.batches
    )


def topk_shared(
    cns: Sequence[CandidateNetwork],
    tuple_sets: TupleSets,
    index: InvertedIndex,
    keywords: Sequence[str],
    k: int = 10,
    budget: Optional[QueryBudget] = None,
    max_workers: int = 1,
) -> TopKResult:
    """Exhaustive top-k over operator-shared CN evaluation (slides 129-134).

    Library code for E12/E20; the engine does not call it.  Evaluates
    the CNs through a
    :class:`~repro.schema_search.evaluate.SharedCNEvaluator`, so join
    prefixes common to several CNs are materialised once and reused;
    the stats report ``reuse_hits`` / ``joins_saved``.

    With ``max_workers > 1`` and no budget, the CNs are partitioned
    into independent shared-plan groups by the sharing-aware placement
    policy (:func:`~repro.schema_search.parallel.shared_plan_groups`)
    and each group runs on its own worker with its own evaluator; the
    heap's content tie-breaking makes the merged top-k independent of
    worker scheduling.  Budgeted queries always run as one sequential
    group — a :class:`QueryBudget` is not shared across threads —
    charging one node expansion per join and one candidate per emitted
    result, and return the partial heap on exhaustion.
    """
    from repro.schema_search.parallel import shared_plan_groups

    stats = JoinStats()
    heap = _TopKHeap(k)
    if not cns:
        return TopKResult([], stats)
    keywords = list(keywords)
    if max_workers > 1 and budget is None and len(cns) > 1:
        groups = shared_plan_groups(cns, tuple_sets, max_workers)
    else:
        groups = [list(range(len(cns)))]

    def run_group(cn_indices: List[int]):
        group_stats = JoinStats()
        evaluator = SharedCNEvaluator(tuple_sets, stats=group_stats, budget=budget)
        evaluator.plan([cns[i] for i in cn_indices])
        scored: List[Tuple[float, str, JoinedRow]] = []
        executed = 0
        try:
            for i in cn_indices:
                label = cns[i].label()
                for joined in evaluator.evaluate(cns[i]):
                    scored.append(
                        (monotonic_result_score(index, joined, keywords), label, joined)
                    )
                executed += 1
        except BudgetExceededError:
            pass  # partial top-k; caller sees budget.exhausted
        return group_stats, scored, executed

    if len(groups) == 1:
        outcomes = [run_group(groups[0])]
    else:
        with ThreadPoolExecutor(max_workers=min(max_workers, len(groups))) as pool:
            outcomes = list(pool.map(run_group, groups))
    executed = 0
    for group_stats, scored, group_executed in outcomes:
        stats.merge(group_stats)
        executed += group_executed
        for score, label, joined in scored:
            heap.offer(score, label, joined)
    return TopKResult(
        heap.sorted_results(), stats, cns_executed=executed, batches=len(groups)
    )
