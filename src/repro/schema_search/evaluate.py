"""CN evaluation: turning a candidate network into joined results.

A CN evaluates to its *minimal total joining networks of tuples*
(DISCOVER): assignments of one tuple per CN node such that every edge's
join predicate holds and no tuple occurs twice (a repeated tuple means
the result collapses into a smaller CN's result).

Two executors share the same semantics:

* :func:`evaluate_cn` — standalone evaluation of one CN.  The join
  order is cardinality-ordered (smallest tuple set first, see
  :func:`~repro.schema_search.plans.cardinality_join_order`) and the
  tuple sets are semi-join pre-filtered (a full reducer pass: leaf to
  root, then root to leaves) before any hash join runs, so tuples that
  cannot participate in a complete joining network never enter the
  pipeline.
* :class:`SharedCNEvaluator` — operator-level shared evaluation across
  the CNs of one query (slides 129-134).  Every materialised join
  prefix is stored once in a per-query subexpression cache keyed by its
  canonical sub-tree code; a later CN whose plan reaches an isomorphic
  partial is seeded from the widest cached intermediate instead of
  recomputing the joins (``JoinStats.reuse_hits`` / ``joins_saved``).
  Shared intermediates are computed *context-free* — no semi-join
  filtering against nodes outside the prefix — because a filtered
  intermediate would be wrong for the other CNs that reuse it.

Both emit results with aliases ``n0..n{size-1}`` in CN node-index
order regardless of the internal join order, so downstream consumers
(scoring, the operator mesh parity tests, result signatures) see a
stable shape.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.relational.executor import JoinedRow, JoinStats, hash_join
from repro.relational.table import Row
from repro.resilience.budget import QueryBudget
from repro.resilience.errors import BudgetExceededError, SearchExecutionError
from repro.schema_search.candidate_networks import CandidateNetwork
from repro.schema_search.plans import (
    JoinStep,
    cardinality_join_order,
    prefix_codes,
    prefix_identity,
)
from repro.schema_search.tuple_sets import TupleSets


def _alias(i: int) -> str:
    return f"n{i}"


def _node_order_aliases(n: int) -> Tuple[str, ...]:
    return tuple(f"n{i}" for i in range(n))


def _permutation(
    src: Tuple[str, ...], dst: Tuple[str, ...]
) -> Optional[Tuple[int, ...]]:
    """Index permutation mapping *src* alias order to *dst* (None = same).

    Every row of one join pipeline carries the same alias tuple, so the
    permutation is computed once per batch instead of per row (the
    per-row ``tuple.index`` lookups used to dominate the profile).
    """
    if src == dst:
        return None
    return tuple(src.index(a) for a in dst)


def _semijoin_reduce(
    cn: CandidateNetwork,
    steps: Sequence[JoinStep],
    tuple_sets: TupleSets,
    stats: Optional[JoinStats],
) -> Dict[int, List[Row]]:
    """Full semi-join reduction of the CN's tuple sets.

    Two passes over the join tree (children before parents, then
    parents before children) drop every tuple that cannot appear in any
    complete joining network — sound because removing a non-joining
    tuple never removes a result.  Null join keys are dropped like the
    hash join drops them (SQL semantics).  Runs only in the standalone
    path: a shared intermediate must stay context-free.
    """
    rows: Dict[int, List[Row]] = {
        step.node: tuple_sets.rows(cn.nodes[step.node].key) for step in steps
    }
    pruned = 0

    # Every row of one node's list comes from the same table, so the
    # column-name -> position lookup is resolved once per list and the
    # hot loops index straight into ``row.values`` (the per-row
    # ``Row.__getitem__`` dict probes used to dominate this reducer).
    def _values(node_rows: List[Row], column: str) -> Set[object]:
        if not node_rows:
            return set()
        idx = node_rows[0].table.column_index(column)
        out = {row.values[idx] for row in node_rows}
        out.discard(None)
        return out

    def _filter(node_rows: List[Row], column: str, allowed: Set[object]) -> List[Row]:
        if not node_rows:
            return node_rows
        idx = node_rows[0].table.column_index(column)
        return [row for row in node_rows if row.values[idx] in allowed]

    # Children before parents: each step's children steps come later in
    # the plan, so reversed order reduces a node only after all of its
    # subtrees have reduced it from below.
    for step in reversed(steps[1:]):
        parent_col, child_col = step.edge.join_columns(
            cn.nodes[step.parent].table
        )
        child_values = _values(rows[step.node], child_col)
        kept = _filter(rows[step.parent], parent_col, child_values)
        pruned += len(rows[step.parent]) - len(kept)
        rows[step.parent] = kept
    # Parents before children: push the fully reduced root back down.
    for step in steps[1:]:
        parent_col, child_col = step.edge.join_columns(
            cn.nodes[step.parent].table
        )
        parent_values = _values(rows[step.parent], parent_col)
        kept = _filter(rows[step.node], child_col, parent_values)
        pruned += len(rows[step.node]) - len(kept)
        rows[step.node] = kept
    if stats is not None:
        stats.semijoin_pruned += pruned
    return rows


def evaluate_cn(
    cn: CandidateNetwork,
    tuple_sets: TupleSets,
    stats: Optional[JoinStats] = None,
    require_distinct: bool = True,
    budget: Optional[QueryBudget] = None,
    semijoin: bool = True,
) -> Iterator[JoinedRow]:
    """Stream the joining networks of tuples for *cn*.

    Joins are executed left-deep in cardinality order with hash joins
    over semi-join-reduced tuple sets; the optional ``stats``
    accumulates tuples read / joins executed (these counters are the
    cost proxy the E2/E3 benchmarks report).  Each emitted result
    charges *budget* one scored candidate; consumers that want
    partial-on-exhaustion semantics should use :func:`cn_results` /
    :func:`all_results`, which catch the raise.  A malformed CN (wrong
    edge count, bad endpoints, disconnected) raises
    :class:`~repro.resilience.errors.SearchExecutionError` immediately.
    """
    steps = cardinality_join_order(cn, tuple_sets)
    if semijoin and len(steps) > 1:
        rows_by_node = _semijoin_reduce(cn, steps, tuple_sets, stats)
    else:
        rows_by_node = {
            step.node: tuple_sets.rows(cn.nodes[step.node].key)
            for step in steps
        }
    return _run_steps(cn, steps, rows_by_node, stats, require_distinct, budget)


def _run_steps(
    cn: CandidateNetwork,
    steps: Sequence[JoinStep],
    rows_by_node: Dict[int, List[Row]],
    stats: Optional[JoinStats],
    require_distinct: bool,
    budget: Optional[QueryBudget],
) -> Iterator[JoinedRow]:
    root = steps[0].node
    base_rows = rows_by_node[root]
    if stats is not None:
        stats.tuples_read += len(base_rows)
    current: Iterator[JoinedRow] = (
        JoinedRow((_alias(root),), (row,)) for row in base_rows
    )
    for step in steps[1:]:
        parent_col, child_col = step.edge.join_columns(
            cn.nodes[step.parent].table
        )
        current = hash_join(
            current,
            _alias(step.parent),
            parent_col,
            rows_by_node[step.node],
            _alias(step.node),
            child_col,
            stats=stats,
        )
    aliases = _node_order_aliases(cn.size)
    # Alias order after the chain is exactly the plan's step order.
    perm = _permutation(tuple(_alias(s.node) for s in steps), aliases)
    for joined in current:
        rows = joined.rows if perm is None else tuple(joined.rows[p] for p in perm)
        # Rows hash by (table, rowid), so a plain set spots repeats.
        if require_distinct and len(set(rows)) < len(rows):
            continue
        if budget is not None:
            budget.tick_candidates()
        yield joined if perm is None else JoinedRow(aliases, rows)


class SharedCNEvaluator:
    """Shared evaluation of many CNs with a subexpression cache.

    One instance serves one query (one :class:`TupleSets`): every join
    prefix it materialises is stored under the prefix's canonical code
    (:func:`~repro.schema_search.plans.prefix_identity`) as plain row
    tuples in canonical node order.  Evaluating a CN first probes the
    cache from the widest plan prefix down; a hit seeds the pipeline at
    that depth, skipping the joins below it.  The cache stores the rows
    position-indexed by the canonical traversal order, so a hit from an
    *isomorphic* prefix of a different CN maps cleanly onto this CN's
    node indices.

    Not thread-safe: parallel evaluation gives each worker its own
    evaluator (see :func:`~repro.schema_search.topk.topk_shared`).
    """

    def __init__(
        self,
        tuple_sets: TupleSets,
        stats: Optional[JoinStats] = None,
        require_distinct: bool = True,
        budget: Optional[QueryBudget] = None,
    ):
        self.tuple_sets = tuple_sets
        self.stats = stats if stats is not None else JoinStats()
        self.require_distinct = require_distinct
        self.budget = budget
        self._subexpressions: Dict[str, List[Tuple[Row, ...]]] = {}
        # When plan() has seen the CN list, only codes appearing in >1
        # plan are worth storing; None = store everything (safe default
        # for callers that feed CNs one at a time).
        self._shared_codes: Optional[Set[str]] = None

    @property
    def subexpression_count(self) -> int:
        return len(self._subexpressions)

    def plan(self, cns: Sequence[CandidateNetwork]) -> None:
        """Restrict the cache to prefixes shared by the coming CN list.

        Counts every plan-prefix code across *cns* so that
        :meth:`_evaluate` skips the (copy + store) cost for prefixes no
        other CN will ever reuse — the bulk of the evaluator's overhead
        on workloads with little sharing.  Malformed CNs are skipped
        here; they still raise when actually evaluated.
        """
        counts: Dict[str, int] = {}
        for cn in cns:
            try:
                steps = cardinality_join_order(cn, self.tuple_sets)
            except SearchExecutionError:
                continue
            for code in prefix_codes(cn, steps):
                counts[code] = counts.get(code, 0) + 1
        self._shared_codes = {code for code, n in counts.items() if n > 1}

    def evaluate(self, cn: CandidateNetwork) -> Iterator[JoinedRow]:
        """Results of *cn*, reusing/extending the subexpression cache.

        Validates the CN (raising ``SearchExecutionError`` when
        malformed) before any join work starts.
        """
        steps = cardinality_join_order(cn, self.tuple_sets)
        return self._evaluate(cn, steps)

    def _wants(self, code: str) -> bool:
        """Is *code* worth materialising into the subexpression cache?"""
        if code in self._subexpressions:
            return False
        return self._shared_codes is None or code in self._shared_codes

    def _evaluate(
        self, cn: CandidateNetwork, steps: Sequence[JoinStep]
    ) -> Iterator[JoinedRow]:
        stats = self.stats
        n = len(steps)
        identities = [
            prefix_identity(cn, steps[: length + 1]) for length in range(n)
        ]
        current: Iterator[JoinedRow]
        src_aliases: Tuple[str, ...]
        start = 0
        for length in range(n, 0, -1):
            code, order = identities[length - 1]
            cached = self._subexpressions.get(code)
            if cached is not None:
                src_aliases = tuple(_alias(i) for i in order)
                current = iter(
                    [JoinedRow(src_aliases, rows) for rows in cached]
                )
                stats.reuse_hits += 1
                stats.joins_saved += length - 1
                start = length
                break
        if start == 0:
            root = steps[0].node
            base_rows = self.tuple_sets.rows(cn.nodes[root].key)
            stats.tuples_read += len(base_rows)
            base_aliases = (_alias(root),)
            src_aliases = base_aliases
            if self._wants(identities[0][0]):
                seeds = [JoinedRow(base_aliases, (row,)) for row in base_rows]
                self._store(identities[0], seeds)
                current = iter(seeds)
            else:
                # Bind base_aliases, not src_aliases: the genexpr is
                # consumed lazily, after src_aliases has grown.
                current = (
                    JoinedRow(base_aliases, (row,)) for row in base_rows
                )
            start = 1
        for length in range(start, n):
            step = steps[length]
            parent_col, child_col = step.edge.join_columns(
                cn.nodes[step.parent].table
            )
            current = hash_join(
                current,
                _alias(step.parent),
                parent_col,
                self.tuple_sets.rows(cn.nodes[step.node].key),
                _alias(step.node),
                child_col,
                stats=stats,
            )
            src_aliases = src_aliases + (_alias(step.node),)
            if self.budget is not None:
                self.budget.tick_nodes()
            # Materialise only prefixes another plan will reuse; the
            # rest stream through lazily like the standalone executor.
            if self._wants(identities[length][0]):
                materialised = list(current)
                self._store(identities[length], materialised)
                current = iter(materialised)
        aliases = _node_order_aliases(cn.size)
        perm = _permutation(src_aliases, aliases)
        for joined in current:
            rows = (
                joined.rows if perm is None else tuple(joined.rows[p] for p in perm)
            )
            if self.require_distinct and len(set(rows)) < len(rows):
                continue
            if self.budget is not None:
                self.budget.tick_candidates()
            yield joined if perm is None else JoinedRow(aliases, rows)

    def _store(
        self, identity: Tuple[str, Tuple[int, ...]], rows: List[JoinedRow]
    ) -> None:
        code, order = identity
        if code in self._subexpressions:
            return
        if self._shared_codes is not None and code not in self._shared_codes:
            return  # no other plan reaches this prefix; don't pay the copy
        aliases = tuple(_alias(i) for i in order)
        if not rows:
            stored: List[Tuple[Row, ...]] = []
        else:
            perm = _permutation(rows[0].aliases, aliases)
            stored = (
                [joined.rows for joined in rows]  # zero-copy: tuples are shared
                if perm is None
                else [tuple(joined.rows[p] for p in perm) for joined in rows]
            )
        self._subexpressions[code] = stored
        self.stats.subexpressions_materialized += 1


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
    """Evaluate every CN standalone; (cn, result) pairs (partial on budget)."""
    out: List[Tuple[CandidateNetwork, JoinedRow]] = []
    try:
        for cn in cns:
            for joined in evaluate_cn(cn, tuple_sets, stats=stats, budget=budget):
                out.append((cn, joined))
    except BudgetExceededError:
        pass
    return out


def all_results_shared(
    cns: Sequence[CandidateNetwork],
    tuple_sets: TupleSets,
    stats: Optional[JoinStats] = None,
    budget: Optional[QueryBudget] = None,
) -> List[Tuple[CandidateNetwork, JoinedRow]]:
    """Shared-execution counterpart of :func:`all_results`.

    Same results (up to order within a CN), fewer joins: one
    :class:`SharedCNEvaluator` carries materialised prefixes across the
    whole CN list.
    """
    evaluator = SharedCNEvaluator(tuple_sets, stats=stats, budget=budget)
    evaluator.plan(cns)
    out: List[Tuple[CandidateNetwork, JoinedRow]] = []
    try:
        for cn in cns:
            for joined in evaluator.evaluate(cn):
                out.append((cn, joined))
    except BudgetExceededError:
        pass
    return out
