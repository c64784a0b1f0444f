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
  table, CN plans) is built once, and every shard
  runs the engine's bound-ordered loop over its home slice of each CN's
  anchor queue on the shared thread pool, pruning against the streaming
  global k-th score (:mod:`repro.sharding.scatter`).  The gathered top-k is
  byte-identical to the single-engine answer.
* everything else **routes**: graph methods (``banks``, ``banks2``,
  ``steiner``, ``distinct_root``, ``ease``) because tree answers are
  not partition-local under bounded replication (the EMBANKS/Mragyati
  tradeoff), OR-branch and phrase queries because they post-filter
  top-k streams.  The rung runs whole through the inherited local
  executor, at most once, after a shard worker slot admits it
  (breaker + ``shard.execute`` failpoint, failing over round-robin to
  the next slot).  The computation is the coordinator's, not a
  shard's: its failure degrades the answer and touches no breaker.

Per-shard fault isolation reuses the resilience layer: each shard
worker ticks its own :meth:`QueryBudget.fork` of the caller's budget
(same deadline and caps, cancelled together) behind its own
:class:`CircuitBreaker`, and the ``shard.execute`` failpoint kills a
single shard deterministically — the merged :class:`ResultSet` comes
back ``degraded`` (never an exception or a hang) with the failure
visible in the ``scatter → shard[i] → gather`` span tree.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
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
from repro.resilience.circuit import CircuitBreaker
from repro.resilience.errors import BudgetExceededError, QueryParseError
from repro.resilience.failpoints import fail_point
from repro.schema_search.topk import CNQueryContext
from repro.sharding.partition import Shard, build_shards, make_partitioner
from repro.sharding.scatter import GlobalTopK, scatter_schema

#: Methods whose evaluation is scattered across shard anchor slices;
#: the remaining KNOWN_METHODS are routed to one shard worker.
SCATTER_METHODS = ("schema", "index_only")


@dataclass
class _ShardOutcome:
    """One shard's contribution to one query."""

    shard_id: int
    payload: object = None
    error: Optional[BaseException] = None
    skipped: bool = False
    #: Why the shard's budget fork ran out, when it did.
    exhausted: Optional[str] = None
    latency_ms: float = 0.0
    trace_root: object = None

    @property
    def reason(self) -> Optional[str]:
        if self.skipped:
            return f"shard {self.shard_id}: circuit open"
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
    and any shard failure, skip or exhaustion marks the merged result
    set ``degraded`` instead of failing the query.
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
        max_workers: Optional[int] = None,
        shard_failure_threshold: int = 3,
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
        self._breakers: List[CircuitBreaker] = [
            CircuitBreaker(
                failure_threshold=shard_failure_threshold,
                on_transition=self._on_shard_transition,
            )
            for _ in self.shards
        ]
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers or len(self.shards),
            thread_name_prefix="shard",
        )
        self._row_marks: Dict[str, int] = {
            name: len(table) for name, table in db.tables.items()
        }
        self._rr = 0
        self.metrics.register_gauge("shard.count", lambda: len(self.shards))
        self.metrics.register_gauge(
            "shard.cut_edges", lambda: self.shards.cut_edges
        )
        for i, breaker in enumerate(self._breakers):
            self.metrics.register_gauge(
                f"shard.circuit.state.{i}", lambda b=breaker: b.state
            )
            self.metrics.register_gauge(
                f"shard.circuit.time_in_state_s.{i}",
                lambda b=breaker: round(b.time_in_state_s(), 3),
            )

    @property
    def engine(self) -> "ShardedSearchEngine":
        """Alias of ``self``: the coordinator is the engine that owns the
        shared substrates (``sharded.engine.index`` reads them)."""
        return self

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        self._pool.shutdown(wait=False)
        super().close()

    def _on_shard_transition(self, old_state: str, new_state: str) -> None:
        self.metrics.inc(f"shard.circuit.transitions.{new_state}")

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
        so shard worker threads only ever read the assignment.
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
        partition-local: those run whole on one shard slot, through the
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
            lambda fork: local(compiled, k, rung, fork)[0], budget, tracer
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
            gtopk = GlobalTopK(k)

            def fn(shard: Shard, fork, sp):
                run = scatter_schema(
                    shard.shard_id, shard.owns, context, gtopk, fork
                )
                sp.add("cns", run.cns).add("evaluated", run.evaluated).add(
                    "pruned", run.pruned
                )
                return run

            merged = JoinStats()
            for outcome in self._scatter(fn, budget, tracer):
                if outcome.reason is not None:
                    reasons.append(outcome.reason)
                run = outcome.payload
                if run is not None:
                    merged.merge(run.join_stats)
                    self.metrics.inc("shard.evaluated", run.evaluated)
                    self.metrics.inc("shard.pruned", run.pruned)
            self._record_sharing(merged)
            with trace_span(tracer, "gather") as gsp:
                results = merge_branch_results(
                    schema_results(gtopk.sorted_results()), compiled, k
                )
                gsp.add("results", len(results)).add("offers", gtopk.offers)
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
        """Run *fn* on every shard concurrently with fault isolation."""
        tracing = tracer is not None
        with trace_span(tracer, "scatter") as ssp:
            futures = [
                self._pool.submit(self._run_shard, shard, fn, budget, tracing)
                for shard in self.shards
            ]
            outcomes = [future.result() for future in futures]
            if tracing:
                for outcome in outcomes:
                    if outcome.trace_root is not None:
                        ssp.children.append(outcome.trace_root)
                ssp.add(
                    "shard_failures",
                    sum(1 for o in outcomes if o.error is not None),
                )
        return outcomes

    def _run_shard(
        self, shard: Shard, fn, budget: Optional[QueryBudget], tracing: bool
    ) -> _ShardOutcome:
        """One shard worker: breaker, failpoint, budget fork, span, metrics."""
        outcome = _ShardOutcome(shard.shard_id)
        shard_tracer = Tracer() if tracing else None
        breaker = self._breakers[shard.shard_id]
        start_s = time.perf_counter()
        with trace_span(shard_tracer, f"shard[{shard.shard_id}]") as sp:
            sp.tag("shard", shard.shard_id)
            if not breaker.allow():
                outcome.skipped = True
                sp.tag("skipped", "circuit_open")
                self.metrics.inc("shard.skipped")
            else:
                try:
                    fail_point("shard.execute", key=shard.shard_id)
                    fork = budget.fork() if budget is not None else None
                    outcome.payload = fn(shard, fork, sp)
                    if fork is not None and fork.exhausted:
                        outcome.exhausted = fork.reason
                    breaker.record_success()
                except BudgetExceededError as exc:
                    # Ran out with no partial answer: the query's budget,
                    # not the shard's health.
                    outcome.exhausted = str(exc)
                except (QueryParseError, ValueError) as exc:
                    # Structural: deterministic for the query, identical
                    # on every shard — not a shard-health signal.
                    outcome.error = exc
                    sp.tag("error", type(exc).__name__)
                except Exception as exc:
                    breaker.record_failure()
                    outcome.error = exc
                    sp.tag("error", type(exc).__name__)
                    self.metrics.inc("shard.failures")
        outcome.latency_ms = (time.perf_counter() - start_s) * 1000.0
        self.metrics.observe("shard.latency_ms", outcome.latency_ms)
        if shard_tracer is not None:
            outcome.trace_root = shard_tracer.finish().root
        return outcome

    # ------------------------------------------------------------------
    # Routed methods
    # ------------------------------------------------------------------
    def route_order(self) -> List[int]:
        """Slot try-order for routed rungs: round-robin over shard ids."""
        ids = list(range(len(self.shards)))
        start = self._rr % len(ids)
        self._rr += 1
        return ids[start:] + ids[:start]

    def _route(
        self,
        run_local,
        budget: Optional[QueryBudget],
        tracer: Optional[Tracer],
    ) -> Tuple[List[SearchResult], List[str]]:
        """Run *run_local* once, on the first shard worker slot that admits it.

        Admission (breaker + ``shard.execute`` failpoint) is the slot's:
        a failure there is recorded on its breaker and the next id is
        tried.  The computation is the coordinator's — the same shared
        substrates and data graph whichever slot admitted it — so its
        failure is reported as the degraded reason and neither charged
        to a breaker nor retried: the retry would repeat the identical
        work, and one bad query would open every shard's circuit for
        the scattered rungs too.
        """
        order = self.route_order()
        reasons: List[str] = []

        def fn(shard, fork, sp):
            try:
                inner = run_local(fork)
            except (BudgetExceededError, QueryParseError, ValueError):
                raise  # _run_shard already keeps these off the breaker
            except Exception as exc:
                reasons.append(f"route: {type(exc).__name__}: {exc}")
                sp.tag("error", type(exc).__name__)
                return []
            sp.add("results", len(inner))
            return inner

        with trace_span(tracer, "route") as rsp:
            rsp.tag("order", ",".join(str(i) for i in order))
            for shard_id in order:
                outcome = self._run_shard(
                    self.shards.shards[shard_id], fn, budget, tracer is not None
                )
                if tracer is not None and outcome.trace_root is not None:
                    rsp.children.append(outcome.trace_root)
                if isinstance(outcome.error, (QueryParseError, ValueError)):
                    # Structural: identical on every shard, so surface it
                    # exactly like the single engine would.
                    raise outcome.error
                if outcome.reason is not None:
                    reasons.append(outcome.reason)
                if outcome.error is None and not outcome.skipped:
                    return outcome.payload or [], reasons
        return [], reasons or ["no shard available"]
