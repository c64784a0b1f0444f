"""Top-k CN evaluation: one score-once, bound-driven executor.

Slide 116 (DISCOVER2, Hristidis+ VLDB 03): under a monotonic score, CN
evaluation can stop at the k-th score.  Everything that answers a
``schema`` query — the single engine, the structured compiler and the
sharded scatter — runs :func:`run_bound_ordered` over one per-query
:class:`CNQueryContext`:

* **Score table** — ``tuple_score`` runs once per member of each
  non-free tuple set the query's CNs use; free rows score exactly
  ``0.0``.  A result's score is the sum of table entries in CN
  node-index order divided by ``1 + ln(size)`` — the additions
  ``monotonic_result_score`` performs, in its order: bit-identical.
* **Index nested-loop on rowids** — every CN join equates a foreign key
  with the primary key it references and a table indexes both, so a
  partial result is a list of rowids and a join step probes the child
  table's own index (:meth:`Table.rowids`), keeping the members of the
  child's tuple set.  Nothing is built per query.  Index buckets are in
  ascending rowid order, the order tuple sets list their members in, so
  candidates come out in the order hash joins over materialised tuple
  sets produced them.
* **Bound-ordered loop** — the execution slice is one *anchor tuple*
  (the CN's largest non-free node, scanned in descending score); a
  priority queue always advances the CN whose next slice has the
  highest score upper bound and stops once that bound is *strictly*
  below the k-th score, so an equal-score answer with a smaller content
  key is still found: the top-k equals exhaustive evaluation, ties at
  the k-th score included.  Inside a slice the same bound, tightened by
  the scores joined so far, drops partials (:meth:`CNCursor.next_batch`).
* **Late and lazy** — the heap decides on a score and, at a tie, a
  content key read off the plan and the rowids: ``Row`` / ``JoinedRow``
  objects exist only for the at most k answers returned.  A bound needs
  a CN's anchor queue and per-node extremes; its join steps are derived
  when it is first advanced, and most CNs never are.

The four VLDB 03 strategies the paper contrasts (E2) are stop policies
over the same cursors, all on the strict rule: **naive** never stops,
**sparse** skips whole CNs, **single pipeline** also stops inside a CN,
**global pipeline** is the bound-ordered loop itself.  Exhaustive
evaluation (:func:`~repro.schema_search.evaluate.evaluate_cn`) drains
the same cursors with no floor.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.index.inverted import InvertedIndex
from repro.obs.trace import span as trace_span
from repro.relational.database import TupleId
from repro.relational.executor import JoinedRow, JoinStats
from repro.resilience.budget import QueryBudget
from repro.resilience.errors import BudgetExceededError
from repro.schema_search.candidate_networks import CandidateNetwork
from repro.schema_search.scoring import tuple_score
from repro.schema_search.tuple_sets import TupleSetKey, TupleSets

_NEG_INF = float("-inf")

AnchorQueue = List[Tuple[float, TupleId]]
Candidate = Tuple[float, List[int]]  # score, rowids in the plan's join order
#: Per-node extremes around the anchor's slot: (sum before it, values after).
Extremes = Tuple[float, List[float]]


def _extremes(values: List[float], at: int) -> Extremes:
    pre = 0.0
    for value in values[:at]:
        pre += value
    return pre, values[at + 1 :]


def _completion(extremes: Extremes, anchor_score: float, denom: float) -> float:
    """Score of the completion taking *extremes* at every non-anchor node,
    summed in CN node-index order — the association a result's own score
    uses — so by monotonicity of float addition the maxima give a value
    no result of the slice exceeds and the minima one none falls below."""
    total = extremes[0] + anchor_score
    for value in extremes[1]:
        total += value
    return total / denom


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
    """One CN as the executor sees it.  What a bound reads is set when the
    context is built; ``steps`` and the slots after it by
    :meth:`CNQueryContext.prepare` when a cursor first advances the CN."""
    __slots__ = (
        "cn", "label", "denom", "non_free", "anchor", "queue", "node_max",
        "best", "worst", "steps", "scored", "same_table", "aliases", "nodes_at",
    )  # fmt: skip

    def content_key(self, rowids: List[int]) -> Tuple:
        """The heap's tie-break key: ``(label, joined(rowids).tuple_ids())``."""
        return (self.label, tuple([(name, rowids[at]) for name, _, at in self.nodes_at]))

    def joined(self, rowids: List[int]) -> JoinedRow:
        """A produced result as a :class:`JoinedRow` in CN node order."""
        rows = tuple(table.row(rowids[at]) for _, table, at in self.nodes_at)
        return JoinedRow(self.aliases, rows)


class CNQueryContext:
    """Per-query state shared by every CN and every shard worker.

    Built once per query and dropped with it — nothing here is patched
    on the insert path.  Holds the score table and one :class:`_CNPlan`
    per CN; joins probe the tables' own indexes, so there is no join
    structure to build and nothing to lock.
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
        self.plans: List[_CNPlan] = [self._plan(cn) for cn in cns]

    def _score(self, key: TupleSetKey) -> Tuple[Dict[int, float], AnchorQueue]:
        """Score the members of *key*, each exactly once: the rowid ->
        score map results are summed from, and the members by (score
        desc, tuple id asc) — the anchor queue, from the tuple set's
        maximum at its head to its minimum at its tail."""
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

    def _plan(self, cn: CandidateNetwork) -> _CNPlan:
        """The half of a plan its bound needs; :meth:`prepare` adds the rest."""
        tuple_sets = self.tuple_sets
        nodes = cn.nodes
        plan = _CNPlan()
        plan.cn = cn
        plan.label = cn.label()
        plan.denom = 1.0 + math.log(len(nodes))
        plan.steps = None
        plan.non_free = [i for i, node in enumerate(nodes) if not node.is_free]
        # Anchor: the non-free node with the most tuples (finest slicing).
        plan.anchor = max(plan.non_free, key=lambda i: tuple_sets.size(nodes[i].key))
        queues = [self._score(nodes[i].key)[1] for i in plan.non_free]
        at = plan.non_free.index(plan.anchor)
        plan.queue = queues[at]
        plan.node_max = [queue[0][0] if queue else 0.0 for queue in queues]
        plan.best = _extremes(plan.node_max, at)
        plan.worst = _extremes([q[-1][0] if q else 0.0 for q in queues], at)
        return plan

    def prepare(self, plan: _CNPlan) -> List[Tuple]:
        """Derive the join half of *plan*; returns its steps.

        Join order is outwards from the anchor.  A step reads a column
        of an earlier position, probes the child table's index with it
        and keeps the members of the child's tuple set: the score
        table's keys for a non-free node, the tuple sets' O(1) test for
        a free one.  A non-free step also carries the terms of its
        partials' best completion in node-index order: the score of
        every non-free node joined so far, the maximum of the rest.
        Idempotent, with ``steps`` stored last: shard workers racing to
        prepare one plan store equal values, none reads half of one.
        """
        tuple_sets = self.tuple_sets
        db = tuple_sets.db
        nodes = plan.cn.nodes
        adj = plan.cn.adjacency()
        scores = {i: self._scored[nodes[i].key][0] for i in plan.non_free}
        position = {plan.anchor: 0}
        steps = []
        order = [plan.anchor]
        for node_idx in order:  # grows as neighbours are discovered
            table = db.table(nodes[node_idx].table)
            for nbr, edge in adj[node_idx]:
                if nbr in position:
                    continue
                left_col, right_col = edge.join_columns(table.name)
                position[nbr] = len(position)
                order.append(nbr)
                if nbr in scores:
                    member = scores[nbr].__contains__
                    terms = [
                        (position[i], scores[i], 0.0)
                        if i in position
                        else (0, None, node_max)
                        for i, node_max in zip(plan.non_free, plan.node_max)
                    ]
                else:
                    member = tuple_sets.member_test(nodes[nbr].key)
                    terms = None
                probe = (table.values, db.table(nodes[nbr].table).rowids, right_col)
                left = (position[node_idx], table.column_index(left_col))
                steps.append(left + probe + (member, terms))
        # Partial results are lists of rowids in join order; everything
        # the per-result loop needs is addressed by join position.
        size = len(nodes)
        plan.scored = [(position[i], scores[i]) for i in plan.non_free]
        plan.same_table = [
            (position[i], position[j])
            for i in range(size)
            for j in range(i + 1, size)
            if nodes[i].table == nodes[j].table
        ]
        plan.aliases = tuple(f"n{i}" for i in range(size))
        tables = [db.table(node.table) for node in nodes]
        plan.nodes_at = [(t.name, t, position[i]) for i, t in enumerate(tables)]
        plan.steps = steps
        return steps

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
            anchor_key = plan.cn.nodes[plan.anchor].key
            queue = owned.get(anchor_key)
            if queue is None:
                queue = owned[anchor_key] = [
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
        return _completion(self.plan.best, self.queue[self.pos][0], self.plan.denom)

    def next_batch(self, stats: JoinStats, floor: float = _NEG_INF) -> List[Candidate]:
        """The results anchored at the next anchor tuple scoring >= *floor*.

        A result below *floor* (the k-th score read before the slice; it
        only rises) can never enter the top-k, so after a step that
        joins a non-free node a partial whose best completion is
        strictly below it is dropped — unless even the slice's worst
        completion reaches the floor (massively tied scores): nothing
        can be dropped then and the check is skipped.
        """
        if self.pos >= len(self.queue):
            return []
        plan = self.plan
        steps = plan.steps if plan.steps is not None else self.context.prepare(plan)
        anchor_score, anchor_tid = self.queue[self.pos]
        self.pos += 1
        denom = plan.denom
        prune = _completion(plan.worst, anchor_score, denom) < floor
        partials = [[anchor_tid.rowid]]
        probes, read = 0, 1
        for parent_at, left_at, values_of, rowids_of, column, member, terms in steps:
            probes += len(partials)
            extended = []
            for partial in partials:
                value = values_of(partial[parent_at])[left_at]
                if value is not None:
                    matches = rowids_of(column, value)
                    read += len(matches)
                    for rowid in matches:
                        if member(rowid):
                            extended.append(partial + [rowid])
            if prune and terms is not None:
                partials = []
                for partial in extended:
                    total = 0.0
                    for at, scores, node_max in terms:
                        total += node_max if scores is None else scores[partial[at]]
                    if total / denom >= floor:
                        partials.append(partial)
                stats.partials_dropped += len(extended) - len(partials)
            else:
                partials = extended
            if not partials:
                break
        stats.joins_executed += probes
        stats.tuples_read += read
        same_table, scored = plan.same_table, plan.scored
        out: List[Candidate] = []
        for partial in partials:
            for a, b in same_table:
                if partial[a] == partial[b]:
                    break  # repeated tuple -> collapses into a smaller CN
            else:
                total = 0.0
                for at, scores in scored:
                    total += scores[partial[at]]
                score = total / denom
                if score >= floor:
                    out.append((score, partial))
        stats.tuples_emitted += len(out)
        return out


class _RevKey:
    """Content tie-break key with reversed comparison.

    Inside the min-heap the *worst* entry sits at the top; among equal
    scores that should be the entry with the lexicographically largest
    content key, so that the retained top-k (and hence the final result
    list) does not depend on offer order — workers may deliver results
    in any interleaving.  Equality stays identity, so two entries with
    one score and one key (a result reached through two same-label CNs)
    are ordered by ``<`` and the heap never compares their payloads.
    """

    __slots__ = ("key",)

    def __init__(self, key: Tuple):
        self.key = key

    def __lt__(self, other: "_RevKey") -> bool:
        return other.key < self.key


class _TopKHeap:
    """Fixed-capacity min-heap over (score, content tiebreak, payload).

    Retention follows the exact total order *(score desc, content key
    asc)* where the content key is ``(CN label, tuple ids)``: the heap
    always holds the k largest offered entries under that order, so the
    final top-k is a pure function of the offered multiset, whatever
    order entries arrive in (repeated, batched, parallel, sharded runs).
    Comparisons are exact, never epsilon-fuzzy: near-equal scores (one
    answer summed in different orders) would make fuzzy tie classes
    non-transitive and the outcome arrival-order-dependent.  Exactness
    also makes :meth:`kth_score` monotone non-decreasing, which the
    bound-ordered loop relies on for pruning.
    """

    def __init__(self, k: int):
        self.k = k
        # (score, key, plan, rowids), materialised by sorted_results().
        self._heap: List[Tuple[float, _RevKey, _CNPlan, List[int]]] = []

    def offer_rowids(self, score: float, plan: _CNPlan, rowids: List[int]) -> None:
        """An executor candidate, *rowids* in *plan*'s join order: accepted
        or not on its score and, at a tie, its content key — no ``Row`` is
        built for it unless :meth:`sorted_results` still finds it here."""
        heap = self._heap
        if len(heap) < self.k:
            key = _RevKey(plan.content_key(rowids))
            heapq.heappush(heap, (score, key, plan, rowids))
        elif score >= heap[0][0]:
            key = plan.content_key(rowids)
            if score > heap[0][0] or key < heap[0][1].key:
                heapq.heapreplace(heap, (score, _RevKey(key), plan, rowids))

    def kth_score(self) -> float:
        return self._heap[0][0] if len(self._heap) >= self.k else _NEG_INF

    def sorted_results(self) -> List[Tuple[float, str, JoinedRow]]:
        ordered = sorted(self._heap, key=lambda e: (-e[0], e[1].key))
        return [
            (score, rev.key[0], plan.joined(rowids))
            for score, rev, plan, rowids in ordered
        ]


@dataclass
class PipelineRun:
    """What one pass of :func:`run_bound_ordered` did."""

    batches: int = 0
    cns_executed: int = 0
    produced: int = 0  # candidate results produced (and budget-charged)
    dropped: int = 0  # partials cut inside a slice by the bound
    pruned: int = 0  # anchor slots skipped via the threshold
    exhausted: bool = False  # the budget ran out; results are partial


def run_bound_ordered(
    cursors: Sequence[CNCursor],
    offer: Callable[[float, _CNPlan, List[int]], None],
    threshold: Callable[[], float],
    stats: JoinStats,
    budget: Optional[QueryBudget] = None,
) -> PipelineRun:
    """Advance the cursor with the highest bound until none can matter.

    *threshold* is the current k-th score of whatever *offer* feeds —
    the caller's own heap, or the global heap every shard worker shares.
    It only ever rises, so a result below the value read before a slice
    can never enter the final top-k and is not produced; a slice whose
    bound is strictly below it ends the run (every queued cursor bounds
    lower still).  Each produced result charges *budget* one candidate,
    each slice one node expansion; on exhaustion the run returns with
    ``exhausted`` set and the heap holds a partial top-k.
    """
    run = PipelineRun()
    dropped_before = stats.partials_dropped
    pq = [(-c.bound(), i, c) for i, c in enumerate(cursors) if not c.exhausted()]
    heapq.heapify(pq)
    try:
        while pq:
            neg_bound, i, cursor = pq[0]
            floor = threshold()
            if -neg_bound < floor:
                run.pruned = sum(c.remaining() for _, _, c in pq)
                break
            for score, rowids in cursor.next_batch(stats, floor):
                run.produced += 1
                if budget is not None:
                    budget.tick_candidates()
                offer(score, cursor.plan, rowids)
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
    run.dropped = stats.partials_dropped - dropped_before
    return run


def _topk_policy(cns, tuple_sets, index, keywords, k, use_floor, stop_at_bound):
    """CNs one after the other in descending bound order.

    With *use_floor* a CN whose bound is below the current k-th score is
    skipped and slices drop what cannot reach it; with *stop_at_bound* a
    CN is also left as soon as its own remaining bound falls below it.
    """
    stats = JoinStats()
    heap = _TopKHeap(k)
    cursors = CNQueryContext(cns, tuple_sets, index, keywords).cursors()
    cursors.sort(key=lambda c: -c.bound())
    executed = batches = 0
    for cursor in cursors:
        if use_floor and cursor.bound() < heap.kth_score():
            continue
        executed += 1
        while not cursor.exhausted():
            floor = heap.kth_score() if use_floor else _NEG_INF
            if stop_at_bound and cursor.bound() < floor:
                break
            for score, rowids in cursor.next_batch(stats, floor):
                heap.offer_rowids(score, cursor.plan, rowids)
            batches += 1
    return TopKResult(heap.sorted_results(), stats, executed, batches)


def topk_naive(
    cns: Sequence[CandidateNetwork],
    tuple_sets: TupleSets,
    index: InvertedIndex,
    keywords: Sequence[str],
    k: int = 10,
) -> TopKResult:
    """Evaluate everything, then cut (no floor: every result is produced)."""
    return _topk_policy(cns, tuple_sets, index, keywords, k, False, False)


def topk_sparse(
    cns: Sequence[CandidateNetwork],
    tuple_sets: TupleSets,
    index: InvertedIndex,
    keywords: Sequence[str],
    k: int = 10,
) -> TopKResult:
    """Skip whole CNs whose bound cannot reach the current k-th score."""
    return _topk_policy(cns, tuple_sets, index, keywords, k, True, False)


def topk_single_pipeline(
    cns: Sequence[CandidateNetwork],
    tuple_sets: TupleSets,
    index: InvertedIndex,
    keywords: Sequence[str],
    k: int = 10,
) -> TopKResult:
    """Sparse + early stop inside each CN when its own bound falls."""
    return _topk_policy(cns, tuple_sets, index, keywords, k, True, True)


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
    into a ``topk`` child (it overlaps ``evaluate`` by design).  Tracing
    never changes the evaluation order: results are byte-identical.
    """
    stats = JoinStats()
    heap = _TopKHeap(k)
    with trace_span(tracer, "plan") as psp:
        with trace_span(tracer, "score") as ssp:
            context = CNQueryContext(cns, tuple_sets, index, keywords)
            ssp.add("tuples", context.tuples_scored)
        cursors = context.cursors()
        psp.add("cns", len(cns))
        psp.add("viable", sum(1 for c in cursors if not c.exhausted()))
    offer = heap.offer_rowids
    if tracer is not None:
        topk = [0.0, 0]

        def offer(score: float, plan: _CNPlan, rowids: List[int]) -> None:
            t0 = time.perf_counter()
            heap.offer_rowids(score, plan, rowids)
            topk[0] += time.perf_counter() - t0
            topk[1] += 1

    with trace_span(tracer, "evaluate") as esp:
        run = run_bound_ordered(cursors, offer, heap.kth_score, stats, budget)
        esp.add("batches", run.batches).add("cns_executed", run.cns_executed)
        esp.add("produced", run.produced).add("dropped", run.dropped)
        esp.add("pruned", run.pruned)
        if tracer is not None:
            tracer.record("topk", topk[0], {"offers": topk[1]})
    return TopKResult(heap.sorted_results(), stats, run.cns_executed, run.batches)

