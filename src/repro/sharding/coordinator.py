"""The sharded scatter-gather coordinator.

:class:`ShardedSearchEngine` is the :class:`KeywordSearchEngine` query
front end (parse, clean, result cache, ladder, trace, metrics — all
inherited, so a query is parsed and cleaned **once**) over one
:class:`Database` whose tuples each have a home among N shards
(:mod:`repro.sharding.partition` — an ownership predicate per shard,
no per-shard copy of anything), with a different execute seam:

* ``schema`` / ``index_only`` **scatter**: CN enumeration runs once at
  the coordinator over the shared substrates, the per-query executor
  context (:class:`~repro.schema_search.topk.CNQueryContext`: score
  table, CN plans) is built once, and the shards run one after the
  other on the calling thread, each running the engine's bound-ordered
  loop (:func:`~repro.schema_search.topk.run_bound_ordered`) over its
  home slice of each CN's anchor queue into one shared top-k heap,
  pruning against its k-th entry.  The gathered top-k is byte-identical
  to the single-engine answer.
* everything else **routes**: graph methods (``banks``, ``banks2``,
  ``steiner``, ``distinct_root``, ``ease``) because tree answers are
  not partition-local under bounded replication (the EMBANKS/Mragyati
  tradeoff), OR-branch and phrase queries because they post-filter
  top-k streams.  The rung runs once, inline on the calling thread,
  through the inherited local executor under a fork of the caller's
  budget: the computation is the coordinator's own, so no shard slot
  or ``shard.execute`` failpoint stands in front of it, and its
  failure degrades the answer with a ``route: …`` reason.

Per-shard fault isolation reuses the resilience layer: each shard
ticks its own :meth:`QueryBudget.fork` of the caller's budget
(same deadline and caps, cancelled together), and the
``shard.execute`` failpoint kills a single shard deterministically —
the merged :class:`ResultSet` comes back ``degraded`` (never an
exception or a hang) with the failure visible in the
``scatter → shard[i] → gather`` span tree.  A failed shard degrades
that query only: no breaker remembers it, so the first query after
the fault heals is exact again.

Why the merged top-k is byte-identical to the single engine's: the heap
retains the exact top-k of the *offered multiset* under the total order
(score desc, content key asc) whatever order entries arrive in, the
shards' anchor slices partition each CN's anchor queue, and a pruned
anchor slot's answers are all worse in that order than the k-th entry
read at prune time, which only ever improves.  None of them can enter
the final heap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.engine import KeywordSearchEngine
from repro.core.factory import DEFAULT_PARTITIONER
from repro.core.results import SearchResult
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, span as trace_span
from repro.query.compiler import (
    CompiledQuery,
    index_only_results,
    merge_branch_results,
    schema_results,
    score_matching_tuples,
    structured_substrates,
)
from repro.relational.database import Database, TupleId
from repro.relational.executor import JoinStats
from repro.resilience.budget import QueryBudget
from repro.resilience.errors import BudgetExceededError, QueryParseError
from repro.resilience.failpoints import fail_point
from repro.schema_search.topk import CNQueryContext, _TopKHeap, run_bound_ordered
from repro.sharding.partition import Shard, build_shards, make_partitioner

#: Methods whose evaluation is scattered across shard anchor slices;
#: the remaining KNOWN_METHODS are routed: run whole at the coordinator.
SCATTER_METHODS = ("schema", "index_only")


@dataclass
class _ShardOutcome:
    """One shard's contribution to one query."""

    shard_id: int
    payload: object = None
    error: Optional[BaseException] = None
    #: Why the shard's budget fork ran out, when it did.
    exhausted: Optional[str] = None

    @property
    def reason(self) -> Optional[str]:
        if self.error is not None:
            return (
                f"shard {self.shard_id}: "
                f"{type(self.error).__name__}: {self.error}"
            )
        if self.exhausted is not None:
            return f"shard {self.shard_id}: {self.exhausted}"
        return None


class ShardedSearchEngine(KeywordSearchEngine):
    """Scatter-gather keyword search over a partitioned database.

    Same contract as :class:`KeywordSearchEngine` and byte-identical
    answers for every method: scattered rungs by the anchor-partition +
    strict-threshold pruning argument, routed rungs by construction.
    Budgets apply **per shard** (a fork of the caller's budget each),
    and any shard failure or exhaustion marks the merged result set
    ``degraded`` instead of failing the query.
    """

    metric_prefix = "shard_query"

    def __init__(
        self,
        db: Database,
        n_shards: int = 4,
        partitioner=DEFAULT_PARTITIONER,
        max_cn_size: int = 4,
        clean_queries: bool = True,
        result_cache_size: int = 512,
        enable_caches: bool = True,
        trace: bool = False,
        metrics: Optional[MetricsRegistry] = None,
        backend: str = "dict",
        backend_options: Optional[Dict[str, object]] = None,
    ):
        super().__init__(
            db,
            max_cn_size=max_cn_size,
            clean_queries=clean_queries,
            result_cache_size=result_cache_size,
            enable_caches=enable_caches,
            trace=trace,
            metrics=metrics,
            backend=backend,
            backend_options=backend_options,
        )
        self.shards = build_shards(db, make_partitioner(partitioner, n_shards))
        self._key_token = self.shards.token
        self._row_marks: Dict[str, int] = {
            name: len(table) for name, table in db.tables.items()
        }
        self.metrics.register_gauge("shard.count", lambda: len(self.shards))
        self.metrics.register_gauge(
            "shard.cut_edges", lambda: self.shards.cut_edges
        )

    @property
    def engine(self) -> "ShardedSearchEngine":
        """Alias of ``self``: the coordinator is the engine that owns the
        shared substrates (``sharded.engine.index`` reads them)."""
        return self

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def shard_stats(self) -> Dict[str, object]:
        """Partition-quality numbers (home sizes, balance, cut edges)."""
        return self.shards.stats()

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """Give each row inserted since the last call a home shard, then
        patch the shared substrates (the inherited refresh).

        Homes are assigned here, not lazily inside :meth:`Shard.owns`,
        so a query only ever reads the assignment.
        """
        if self.db.data_version != self._served_version:
            for name, table in self.db.tables.items():
                for rowid in range(self._row_marks[name], len(table)):
                    self.shards.home(TupleId(name, rowid))
                self._row_marks[name] = len(table)
        super().refresh()

    # ------------------------------------------------------------------
    # The execute seam
    # ------------------------------------------------------------------
    def _execute_rung(
        self,
        compiled: CompiledQuery,
        k: int,
        rung: str,
        budget: Optional[QueryBudget],
        tracer: Optional[Tracer] = None,
    ) -> Tuple[List[SearchResult], Sequence[str]]:
        """Scatter what partitions by anchor tuple; route the rest whole.

        Single-branch, phrase-free ``schema`` / ``index_only`` rungs
        scatter — a row filter rides to the shards inside the plans
        (filtered tuple sets) or the ownership callable, and the gather
        applies the same merge rule as the local executor.  OR-branches
        and phrase constraints post-filter top-k streams, which would
        under-fill a scattered global k, and graph answers are not
        partition-local: those run whole at the coordinator, through the
        inherited local executor.
        """
        keywords = list(compiled.branches[0])
        scatterable = len(compiled.branches) == 1 and not compiled.query.phrases
        if scatterable and rung in SCATTER_METHODS:
            # A routed rung reaches this failpoint through the local
            # executor; a scattered one never enters it.
            fail_point("engine.method", key=rung)
            if rung == "schema":
                return self._scatter_schema(compiled, keywords, k, budget, tracer)
            return self._scatter_index_only(compiled, keywords, k, budget, tracer)
        local = super()._execute_rung
        return self._route(
            lambda fork: local(compiled, k, rung, fork, tracer)[0], budget, tracer
        )

    # ------------------------------------------------------------------
    # Scattered methods
    # ------------------------------------------------------------------
    def _scatter_schema(
        self,
        compiled: CompiledQuery,
        keywords: List[str],
        k: int,
        budget: Optional[QueryBudget],
        tracer: Optional[Tracer],
    ) -> Tuple[List[SearchResult], List[str]]:
        with trace_span(tracer, "plan") as psp:
            tuple_sets, cns, index = structured_substrates(
                self, compiled, keywords, budget=budget, tracer=tracer
            )
            context = CNQueryContext(cns, tuple_sets, index, keywords)
            psp.add("cns", len(cns))
        reasons: List[str] = []
        if budget is not None and budget.exhausted:
            reasons.append(f"coordinator: {budget.reason}")
        results: List[SearchResult] = []
        if cns:
            heap, stats = _TopKHeap(k), JoinStats()

            def fn(shard: Shard, fork, sp):
                cursors = context.cursors(anchor_filter=shard.owns)
                sp.add("cns", sum(1 for cursor in cursors if not cursor.exhausted()))
                run = run_bound_ordered(
                    cursors, heap.offer_rowids, heap.kth, stats, fork
                )
                sp.add("evaluated", run.produced).add("pruned", run.pruned)
                return run

            offers = 0
            for outcome in self._scatter(fn, budget, tracer):
                if outcome.reason is not None:
                    reasons.append(outcome.reason)
                run = outcome.payload
                if run is not None:
                    offers += run.produced
                    self.metrics.inc("shard.evaluated", run.produced)
                    self.metrics.inc("shard.pruned", run.pruned)
            self._record_sharing(stats)
            with trace_span(tracer, "gather") as gsp:
                results = merge_branch_results(
                    schema_results(heap.sorted_results()), compiled, k
                )
                gsp.add("results", len(results)).add("offers", offers)
        return results, reasons

    def _scatter_index_only(
        self,
        compiled: CompiledQuery,
        keywords: List[str],
        k: int,
        budget: Optional[QueryBudget],
        tracer: Optional[Tracer],
    ) -> Tuple[List[SearchResult], List[str]]:
        """Each shard scores its home tuples straight off the global index.

        The home partition makes per-shard score maps disjoint, so their
        union equals the single-engine scored map exactly.
        """
        with trace_span(tracer, "plan"):
            index = compiled.index_view(self.index)
            allows = compiled.allows

        def fn(shard: Shard, fork, sp):
            owns = shard.owns
            mine = owns if allows is None else lambda tid: owns(tid) and allows(tid)
            shard_scored = score_matching_tuples(index, keywords, mine, fork)
            sp.add("evaluated", len(shard_scored))
            return shard_scored

        scored: Dict[TupleId, float] = {}
        reasons = []
        for outcome in self._scatter(fn, budget, tracer):
            if outcome.reason is not None:
                reasons.append(outcome.reason)
            if outcome.payload is not None:
                self.metrics.inc("shard.evaluated", len(outcome.payload))
                scored.update(outcome.payload)
        with trace_span(tracer, "gather") as gsp:
            results = merge_branch_results(
                index_only_results(self, scored, k), compiled, k
            )
            gsp.add("results", len(results))
        return results, reasons

    def _scatter(
        self, fn, budget: Optional[QueryBudget], tracer: Optional[Tracer]
    ) -> List[_ShardOutcome]:
        """Run *fn* on shard 0 … N-1, in order, with fault isolation."""
        with trace_span(tracer, "scatter") as ssp:
            outcomes = [
                self._run_shard(shard, fn, budget, tracer) for shard in self.shards
            ]
            ssp.add(
                "shard_failures", sum(1 for o in outcomes if o.error is not None)
            )
        return outcomes

    def _run_shard(
        self, shard: Shard, fn, budget: Optional[QueryBudget], tracer: Optional[Tracer]
    ) -> _ShardOutcome:
        """One shard: failpoint, budget fork, span, metrics."""
        outcome = _ShardOutcome(shard.shard_id)
        start_s = time.perf_counter()
        with trace_span(tracer, f"shard[{shard.shard_id}]") as sp:
            sp.tag("shard", shard.shard_id)
            if budget is not None and budget.request_id is not None:
                sp.tag("request_id", budget.request_id)
            try:
                fail_point("shard.execute", key=shard.shard_id)
                fork = budget.fork() if budget is not None else None
                outcome.payload = fn(shard, fork, sp)
                if fork is not None and fork.exhausted:
                    outcome.exhausted = fork.reason
            except BudgetExceededError as exc:
                # Ran out with no partial answer: the query's budget,
                # not the shard's health.
                outcome.exhausted = str(exc)
            except (QueryParseError, ValueError) as exc:
                # Structural: deterministic for the query, identical on
                # every shard — not counted as a shard failure.
                outcome.error = exc
                sp.tag("error", type(exc).__name__)
            except Exception as exc:
                outcome.error = exc
                sp.tag("error", type(exc).__name__)
                self.metrics.inc("shard.failures")
        elapsed_ms = (time.perf_counter() - start_s) * 1000.0
        self.metrics.observe("shard.latency_ms", elapsed_ms)
        return outcome

    # ------------------------------------------------------------------
    # Routed methods
    # ------------------------------------------------------------------
    def _route(
        self,
        run_local,
        budget: Optional[QueryBudget],
        tracer: Optional[Tracer],
    ) -> Tuple[List[SearchResult], List[str]]:
        """Run *run_local* once, inline, under one ``route`` span.

        The computation is the coordinator's — the shared substrates
        and data graph — so it passes through no shard slot.  It ticks
        one fork of *budget*, whose work lands in the cached answer's
        cost like a shard's.  Budget exhaustion with nothing to show
        and structural errors reach the ladder as they do on one
        engine; any other failure is reported as the degraded reason,
        never retried: a retry would repeat the identical work.
        """
        fork = budget.fork() if budget is not None else None
        with trace_span(tracer, "route") as rsp:
            if fork is not None and fork.request_id is not None:
                rsp.tag("request_id", fork.request_id)
            try:
                results = run_local(fork)
            except (BudgetExceededError, QueryParseError, ValueError):
                raise
            except Exception as exc:
                rsp.tag("error", type(exc).__name__)
                return [], [f"route: {type(exc).__name__}: {exc}"]
            rsp.add("results", len(results))
        if fork is not None and fork.exhausted:
            return results, [f"route: {fork.reason}"]
        return results, []
