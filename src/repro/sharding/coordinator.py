"""The sharded scatter-gather coordinator.

:class:`ShardedSearchEngine` fronts one :class:`Database` partitioned
into N shards (:mod:`repro.sharding.partition`).  A query is parsed and
cleaned **once**; then:

* ``schema`` / ``index_only`` **scatter**: CN enumeration runs once at
  the coordinator over the shared substrates, the per-query executor
  context (:class:`~repro.schema_search.topk.CNQueryContext`: score
  table, CN plans, shared build sides) is built once, and every shard
  runs the engine's bound-ordered loop over its home slice of each CN's
  anchor queue on the shared thread pool, pruning against the streaming
  global k-th score (:mod:`repro.sharding.scatter`).  The gathered top-k is
  byte-identical to the single-engine answer.
* graph methods (``banks``, ``banks2``, ``steiner``, ``distinct_root``,
  ``ease``) **route**: tree answers are not partition-local under
  bounded replication (the EMBANKS/Mragyati tradeoff), so the query
  runs whole on a shard worker slot against the shared data graph,
  with circuit-breaker failover across shards.  With
  ``selection_routing=True`` the order of shards tried comes from the
  keyword-relationship source-selection scorer
  (:mod:`repro.distributed.selection`) over per-shard summaries.

Per-shard fault isolation reuses the resilience layer: each shard gets
its own :class:`QueryBudget` and :class:`CircuitBreaker`, and the
``shard.execute`` failpoint kills a single shard deterministically —
the merged :class:`ResultSet` comes back ``degraded`` (never an
exception or a hang) with the failure visible in the
``scatter → shard[i] → gather`` span tree.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.engine import KeywordSearchEngine
from repro.core.query import Query
from repro.core.results import ResultSet, SearchResult
from repro.distributed.selection import DatabaseSummary, rank_databases
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, span as trace_span
from repro.perf.lru import LRUCache
from repro.relational.database import Database, TupleId
from repro.relational.executor import JoinStats
from repro.resilience.budget import make_budget
from repro.resilience.circuit import CircuitBreaker
from repro.resilience.degradation import KNOWN_METHODS
from repro.resilience.errors import QueryParseError
from repro.resilience.failpoints import fail_point
from repro.schema_search.topk import CNQueryContext
from repro.sharding.partition import Shard, build_shards, make_partitioner
from repro.sharding.scatter import (
    GlobalTopK,
    ShardRunStats,
    scatter_index_only,
    scatter_schema,
)

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
        run = self.payload if isinstance(self.payload, ShardRunStats) else None
        if run is not None and run.exhausted:
            return f"shard {self.shard_id}: {run.reason}"
        return None


class ShardedSearchEngine:
    """Scatter-gather keyword search over a partitioned database."""

    def __init__(
        self,
        db: Database,
        n_shards: int = 4,
        partitioner="hash",
        max_cn_size: int = 4,
        clean_queries: bool = True,
        result_cache_size: int = 256,
        enable_caches: bool = True,
        selection_routing: bool = False,
        trace: bool = False,
        metrics: Optional[MetricsRegistry] = None,
        max_workers: Optional[int] = None,
        shard_failure_threshold: int = 3,
        shard_reset_timeout_s: float = 30.0,
        backend: str = "dict",
        backend_options: Optional[Dict[str, object]] = None,
    ):
        self.db = db
        self.max_cn_size = max_cn_size
        self.enable_caches = enable_caches
        self.selection_routing = selection_routing
        self.trace_enabled = trace
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.backend_name = backend
        self.backend_options = dict(backend_options) if backend_options else None
        #: The coordinator-side engine: owns the shared substrates
        #: (index, tuple sets, CN memos) that scatter plans read, and
        #: executes routed graph methods.  Incremental refresh stays on
        #: so inserts patch rather than rebuild.
        self.engine = KeywordSearchEngine(
            db,
            max_cn_size=max_cn_size,
            clean_queries=clean_queries,
            enable_caches=enable_caches,
            metrics=self.metrics,
            backend=backend,
            backend_options=self.backend_options,
        )
        self.shards = build_shards(db, make_partitioner(partitioner, n_shards))
        for shard in self.shards.shards:
            shard.backend = backend
            shard.backend_options = self._shard_backend_options(shard.shard_id)
        self._breakers: List[CircuitBreaker] = [
            CircuitBreaker(
                failure_threshold=shard_failure_threshold,
                reset_timeout_s=shard_reset_timeout_s,
                on_transition=self._on_shard_transition,
            )
            for _ in self.shards
        ]
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers or len(self.shards),
            thread_name_prefix="shard",
        )
        self._result_cache = LRUCache(result_cache_size)
        self._summary_cache = LRUCache(32)
        self._row_marks: Dict[str, int] = {
            name: len(table) for name, table in db.tables.items()
        }
        self._served_version = db.data_version
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

    def _shard_backend_options(
        self, shard_id: int
    ) -> Optional[Dict[str, object]]:
        """Per-shard backend options: disk segments must not collide."""
        if not self.backend_options:
            return None
        options = dict(self.backend_options)
        path = options.get("path")
        if isinstance(path, str):
            options["path"] = f"{path}.shard{shard_id}"
        return options

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        self._pool.shutdown(wait=False)

    def __enter__(self) -> "ShardedSearchEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _on_shard_transition(self, old_state: str, new_state: str) -> None:
        self.metrics.inc(f"shard.circuit.transitions.{new_state}")

    def shard_stats(self) -> Dict[str, object]:
        """Partition-quality numbers (balance, replicas, cut edges)."""
        return self.shards.stats()

    def parse(self, text: str, tracer: Optional[Tracer] = None) -> Query:
        """Coordinator-side parse + clean (runs once, never per shard)."""
        return self.engine.parse(text, tracer=tracer)

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def refresh(self) -> int:
        """Route rows inserted into the source database to their shards.

        Each new row is copied to its home shard plus — per the
        radius-1 boundary-replica rule — every shard owning one of its
        FK neighbours; its off-shard neighbours are replicated back
        into the home shard.  No other shard is touched, and the
        coordinator engine patches its own substrates incrementally, so
        a single-row insert stays O(neighbourhood), not O(database).
        Returns the number of shard-row copies made.
        """
        if self.db.data_version == self._served_version:
            return 0
        routed = 0
        for name, table in self.db.tables.items():
            start = self._row_marks.get(name, 0)
            for rowid in range(start, len(table)):
                tid = TupleId(name, rowid)
                home = self.shards.home(tid)
                neighbors = self.db.neighbors(tid)
                targets = {home}
                targets.update(
                    self.shards.home(nb)
                    for nb in neighbors
                    if self.shards.home(nb) != home
                )
                for sid in targets:
                    if self.shards.shards[sid].add_row(
                        tid, is_home=(sid == home)
                    ):
                        routed += 1
                home_shard = self.shards.shards[home]
                for nb in neighbors:
                    if self.shards.home(nb) != home and home_shard.add_row(
                        nb, is_home=False
                    ):
                        routed += 1
            self._row_marks[name] = len(table)
        self._served_version = self.db.data_version
        self._result_cache.clear()
        self._summary_cache.clear()
        self.metrics.inc("refresh.rows_routed", routed)
        return routed

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(
        self,
        text: str,
        k: int = 10,
        method: str = "schema",
        use_cache: bool = True,
        timeout_ms: Optional[float] = None,
        max_expansions: Optional[int] = None,
        fallback: bool = False,
        trace: Optional[bool] = None,
    ) -> ResultSet:
        """Top-k search with the single-engine contract.

        Results are byte-identical to
        ``KeywordSearchEngine(db).search(...)`` for every method:
        scattered methods by the anchor-partition + strict-threshold
        pruning argument, routed methods by construction.  The
        resilience and tracing knobs mirror the single engine's;
        budgets (``timeout_ms`` / ``max_expansions``) apply **per
        shard**, and any shard failure, skip or exhaustion marks the
        merged result set ``degraded`` instead of failing the query.
        ``fallback=True`` descends the single-node degradation ladder
        (scale-out does not help a query that exhausts its budget).

        The fielded DSL works here too: bare keyword queries take the
        legacy byte-identical paths, structured ones are compiled once
        at the coordinator and either scattered with filtered plans
        (single-branch ``schema`` / ``index_only``) or routed whole to
        a shard worker slot.
        """
        self.refresh()
        if method not in KNOWN_METHODS:
            raise QueryParseError(
                f"unknown method {method!r} (choices: {', '.join(KNOWN_METHODS)})"
            )
        return self._search_impl(
            self.engine._parse_canonical(text),
            k,
            method,
            use_cache,
            timeout_ms,
            max_expansions,
            fallback,
            trace,
        )

    def search_structured(
        self,
        query,
        k: int = 10,
        method: str = "schema",
        use_cache: bool = True,
        timeout_ms: Optional[float] = None,
        max_expansions: Optional[int] = None,
        fallback: bool = False,
        trace: Optional[bool] = None,
    ) -> ResultSet:
        """Search from an already-parsed :class:`StructuredQuery`."""
        self.refresh()
        if method not in KNOWN_METHODS:
            raise QueryParseError(
                f"unknown method {method!r} (choices: {', '.join(KNOWN_METHODS)})"
            )
        return self._search_impl(
            query, k, method, use_cache, timeout_ms, max_expansions, fallback, trace
        )

    def _search_impl(
        self,
        query,
        k: int,
        method: str,
        use_cache: bool,
        timeout_ms: Optional[float],
        max_expansions: Optional[int],
        fallback: bool,
        trace: Optional[bool],
    ) -> ResultSet:
        budgeted = timeout_ms is not None or max_expansions is not None
        tracing = self.trace_enabled if trace is None else trace
        tracer = Tracer() if tracing else None
        self.metrics.inc("shard_query.count")
        start_s = time.perf_counter()
        with trace_span(tracer, "search") as root:
            root.tag("method", method).tag("k", k).tag(
                "shards", len(self.shards)
            )
            if fallback:
                with trace_span(tracer, "cache_lookup") as csp:
                    csp.tag("outcome", "bypass")
                results = self.engine.search_structured(
                    query,
                    k=k,
                    method=method,
                    use_cache=False,
                    timeout_ms=timeout_ms,
                    max_expansions=max_expansions,
                    fallback=True,
                    trace=False,
                )
            elif budgeted or not (use_cache and self.enable_caches):
                with trace_span(tracer, "cache_lookup") as csp:
                    csp.tag("outcome", "bypass")
                results = self._run(
                    query, k, method, timeout_ms, max_expansions, tracer
                )
            else:
                results = self._serve_cached(query, k, method, tracer)
        self.metrics.observe(
            "shard_query.latency_ms", (time.perf_counter() - start_s) * 1000.0
        )
        if results.degraded:
            self.metrics.inc("shard_query.degraded")
        if tracer is not None:
            results.trace = tracer.finish()
        return results

    def _query_key(self, query_or_text, method: str, k: int) -> Tuple:
        """Single-engine canonical key + the shard-configuration token.

        Keys on the post-parse, post-clean :class:`StructuredQuery`
        (same invariant as the single engine), so texts that clean to
        the same canonical query share one cache entry.
        """
        if isinstance(query_or_text, str):
            query_or_text = self.engine._parse_canonical(query_or_text)
        return (query_or_text.cache_key(), method, k, self.shards.token)

    def _serve_cached(
        self, query, k: int, method: str, tracer: Optional[Tracer]
    ) -> ResultSet:
        key = self._query_key(query, method, k)
        cache = self._result_cache
        with trace_span(tracer, "cache_lookup") as csp:
            cached = cache.get(key)
            csp.tag("outcome", "hit" if cached is not None else "miss")
        if cached is not None:
            self.metrics.inc("shard_query.cache_hits")
            return cached.clone()
        results = self._run(query, k, method, None, None, tracer)
        if not results.degraded:
            # A degraded merge (dead shard, open breaker) must not be
            # pinned: the next query should retry the full scatter.
            cache.put(key, results)
        return results.clone()

    def _run(
        self,
        query,
        k: int,
        method: str,
        timeout_ms: Optional[float],
        max_expansions: Optional[int],
        tracer: Optional[Tracer],
    ) -> ResultSet:
        if query.is_empty:
            return ResultSet(method=method)
        if not query.is_bare:
            return self._run_structured(
                query, k, method, timeout_ms, max_expansions, tracer
            )
        # Bare keywords: the canonical query is already cleaned; re-enter
        # the legacy flow (parse + clean spans, byte-identical
        # scatter/route paths) without cleaning it a second time.
        legacy = self.engine._legacy_query(query, tracer)
        if not legacy.keywords:
            return ResultSet(method=method)
        if method == "schema":
            return self._scatter_schema(
                list(legacy.keywords), k, timeout_ms, max_expansions, tracer
            )
        if method == "index_only":
            return self._scatter_index_only(
                list(legacy.keywords), k, timeout_ms, max_expansions, tracer
            )
        return self._routed(
            query.raw, legacy, k, method, timeout_ms, max_expansions, tracer
        )

    def _run_structured(
        self,
        query,
        k: int,
        method: str,
        timeout_ms: Optional[float],
        max_expansions: Optional[int],
        tracer: Optional[Tracer],
    ) -> ResultSet:
        """Structured execution: scatter filtered plans or route whole.

        Single-branch, phrase-free ``schema`` / ``index_only`` queries
        scatter — the compiled row filter rides to the shards inside
        the plans (filtered tuple sets) or the ownership callable, and
        the gather applies the same merge rule as the single engine.
        OR-branches and phrase constraints post-filter top-k streams,
        which would under-fill a scattered global k, so those queries
        run whole on a shard worker slot instead.
        """
        from repro.query.compiler import compile_query, predicate_only_results

        with trace_span(tracer, "compile") as csp:
            compiled = compile_query(self.engine, query)
            csp.add("branches", len(compiled.branches))
            csp.tag("filtered", compiled.row_filter is not None)
        if not compiled.branches:
            with trace_span(tracer, "gather"):
                return ResultSet(
                    predicate_only_results(self.engine, compiled, k),
                    method=method,
                )
        scatterable = (
            method in SCATTER_METHODS
            and len(compiled.branches) == 1
            and not query.phrases
        )
        if scatterable:
            keywords = list(compiled.branches[0])
            if method == "schema":
                return self._scatter_schema(
                    keywords, k, timeout_ms, max_expansions, tracer,
                    compiled=compiled,
                )
            return self._scatter_index_only(
                keywords, k, timeout_ms, max_expansions, tracer,
                compiled=compiled,
            )
        return self._routed_structured(
            query, compiled, k, method, timeout_ms, max_expansions, tracer
        )

    # ------------------------------------------------------------------
    # Scattered methods
    # ------------------------------------------------------------------
    def _scatter_schema(
        self,
        keywords: List[str],
        k: int,
        timeout_ms: Optional[float],
        max_expansions: Optional[int],
        tracer: Optional[Tracer],
        compiled=None,
    ) -> ResultSet:
        coord_budget = make_budget(timeout_ms, max_expansions)
        with trace_span(tracer, "plan") as psp:
            if compiled is not None:
                from repro.query.compiler import structured_substrates

                tuple_sets, cns, index = structured_substrates(
                    self.engine, compiled, keywords, budget=coord_budget
                )
            else:
                tuple_sets = self.engine.substrates.tuple_sets(keywords)
                cns = self.engine.substrates.candidate_networks(
                    keywords, self.max_cn_size, budget=coord_budget
                )
                index = self.engine.index
            context = CNQueryContext(cns, tuple_sets, index, keywords)
            psp.add("cns", len(cns))
        reasons: List[str] = []
        if coord_budget is not None and coord_budget.exhausted:
            reasons.append(f"coordinator: {coord_budget.reason}")
        results: List[SearchResult] = []
        if cns:
            gtopk = GlobalTopK(k)

            def fn(shard: Shard, budget, sp):
                run = scatter_schema(
                    shard.shard_id, shard.owns, context, gtopk, budget
                )
                sp.add("cns", run.cns).add("evaluated", run.evaluated).add(
                    "pruned", run.pruned
                )
                return run

            outcomes = self._scatter(fn, timeout_ms, max_expansions, tracer)
            merged = JoinStats()
            for outcome in outcomes:
                reason = outcome.reason
                if reason is not None:
                    reasons.append(reason)
                run = outcome.payload
                if isinstance(run, ShardRunStats):
                    merged.merge(run.join_stats)
                    self.metrics.inc("shard.evaluated", run.evaluated)
                    self.metrics.inc("shard.pruned", run.pruned)
            self.engine._record_sharing(merged)
            with trace_span(tracer, "gather") as gsp:
                results = [
                    SearchResult(score=score, network=label, joined=joined)
                    for score, label, joined in gtopk.sorted_results()
                ]
                if compiled is not None:
                    from repro.query.compiler import merge_branch_results

                    results = merge_branch_results(results, compiled, k)
                gsp.add("results", len(results)).add("offers", gtopk.offers)
        return ResultSet(
            results,
            method="schema",
            degraded=bool(reasons),
            degraded_reason="; ".join(reasons) or None,
        )

    def _scatter_index_only(
        self,
        keywords: List[str],
        k: int,
        timeout_ms: Optional[float],
        max_expansions: Optional[int],
        tracer: Optional[Tracer],
        compiled=None,
    ) -> ResultSet:
        with trace_span(tracer, "plan"):
            if compiled is not None:
                index = compiled.index_view(self.engine.index)
                row_filter = compiled.row_filter
            else:
                index = self.engine.index
                row_filter = None
        scored: Dict[TupleId, float] = {}

        def fn(shard: Shard, budget, sp):
            owns = shard.owns
            if row_filter is not None:
                allows = row_filter.allows
                base_owns = shard.owns
                owns = lambda tid: base_owns(tid) and allows(tid)
            run, shard_scored = scatter_index_only(
                shard.shard_id, owns, index, keywords, budget
            )
            sp.add("evaluated", run.evaluated)
            return run, shard_scored

        outcomes = self._scatter(fn, timeout_ms, max_expansions, tracer)
        reasons = []
        for outcome in outcomes:
            if outcome.reason is not None:
                reasons.append(outcome.reason)
            if outcome.payload is not None:
                run, shard_scored = outcome.payload
                self.metrics.inc("shard.evaluated", run.evaluated)
                scored.update(shard_scored)
        with trace_span(tracer, "gather") as gsp:
            top = sorted(scored.items(), key=lambda item: (-item[1], item[0]))[:k]
            results = [
                SearchResult(
                    score=score,
                    network=f"index-only({tid.table})",
                    joined=self.engine._tree_to_joined({tid}),
                )
                for tid, score in top
            ]
            if compiled is not None:
                from repro.query.compiler import merge_branch_results

                results = merge_branch_results(results, compiled, k)
            gsp.add("results", len(results))
        return ResultSet(
            results,
            method="index_only",
            degraded=bool(reasons),
            degraded_reason="; ".join(reasons) or None,
        )

    def _scatter(
        self,
        fn,
        timeout_ms: Optional[float],
        max_expansions: Optional[int],
        tracer: Optional[Tracer],
    ) -> List[_ShardOutcome]:
        """Run *fn* on every shard concurrently with fault isolation."""
        tracing = tracer is not None
        with trace_span(tracer, "scatter") as ssp:
            futures = [
                self._pool.submit(
                    self._run_shard, shard, fn, timeout_ms, max_expansions, tracing
                )
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
        self,
        shard: Shard,
        fn,
        timeout_ms: Optional[float],
        max_expansions: Optional[int],
        tracing: bool,
    ) -> _ShardOutcome:
        """One shard worker: breaker, failpoint, budget, span, metrics."""
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
                    budget = make_budget(timeout_ms, max_expansions)
                    outcome.payload = fn(shard, budget, sp)
                    breaker.record_success()
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
    def _summaries(self, keywords: Sequence[str]) -> List[DatabaseSummary]:
        """Per-shard source-selection summaries over the query terms.

        Restricting the summary vocabulary to the query keywords keeps
        the pairwise join-distance BFS tiny, at the cost of one build
        per new keyword set (memoised).
        """
        key = frozenset(kw.lower() for kw in keywords)
        return self._summary_cache.get_or_compute(
            key,
            lambda: [
                DatabaseSummary.build(
                    f"shard-{shard.shard_id}",
                    shard.db,
                    vocabulary=list(key),
                )
                for shard in self.shards
            ],
        )

    def route_order(self, keywords: Sequence[str]) -> List[int]:
        """Shard try-order for routed methods.

        With ``selection_routing`` the keyword-relationship scorer
        ranks shards by their ability to answer the query jointly
        (connectable keyword matches beat co-occurrence); unrankable
        shards follow in id order as failover targets.  Otherwise a
        round-robin spreads routed load across shard worker slots.
        """
        ids = list(range(len(self.shards)))
        if len(ids) <= 1:
            return ids
        if self.selection_routing:
            ranked = rank_databases(self._summaries(keywords), keywords)
            ranked_ids = [
                int(summary.name.split("-", 1)[1]) for summary, _ in ranked
            ]
            rest = [i for i in ids if i not in ranked_ids]
            return ranked_ids + rest
        start = self._rr % len(ids)
        self._rr += 1
        return ids[start:] + ids[:start]

    def _routed(
        self,
        text: str,
        query: Query,
        k: int,
        method: str,
        timeout_ms: Optional[float],
        max_expansions: Optional[int],
        tracer: Optional[Tracer],
    ) -> ResultSet:
        """Run a graph method on one shard worker, failing over.

        Evaluation uses the coordinator's shared data graph (tree
        answers are not partition-local), so results match the single
        engine exactly; the shard layer contributes slot scheduling,
        fault isolation and selection-based routing.
        """
        return self._route_and_run(
            list(query.keywords),
            lambda budget: self.engine._run_search(
                text, k, method, budget, False, None
            ),
            k,
            method,
            timeout_ms,
            max_expansions,
            tracer,
        )

    def _routed_structured(
        self,
        query,
        compiled,
        k: int,
        method: str,
        timeout_ms: Optional[float],
        max_expansions: Optional[int],
        tracer: Optional[Tracer],
    ) -> ResultSet:
        """Run a structured query whole on one shard worker slot.

        Same failover/selection machinery as :meth:`_routed`; the
        selection scorer ranks shards by the first branch's keywords.
        """
        keywords = list(compiled.branches[0]) if compiled.branches else []
        return self._route_and_run(
            keywords,
            lambda budget: self.engine._run_query(
                query, k, method, budget, False, None
            ),
            k,
            method,
            timeout_ms,
            max_expansions,
            tracer,
        )

    def _route_and_run(
        self,
        keywords: List[str],
        run_inner,
        k: int,
        method: str,
        timeout_ms: Optional[float],
        max_expansions: Optional[int],
        tracer: Optional[Tracer],
    ) -> ResultSet:
        order = self.route_order(keywords)
        reasons: List[str] = []
        with trace_span(tracer, "route") as rsp:
            rsp.tag("order", ",".join(str(i) for i in order))
            for shard_id in order:
                shard = self.shards.shards[shard_id]

                def fn(shard, budget, sp):
                    inner = run_inner(budget)
                    sp.add("results", len(inner))
                    return inner

                outcome = self._run_shard(
                    shard, fn, timeout_ms, max_expansions, tracer is not None
                )
                if tracer is not None and outcome.trace_root is not None:
                    rsp.children.append(outcome.trace_root)
                if outcome.error is not None and isinstance(
                    outcome.error, (QueryParseError, ValueError)
                ):
                    # Structural: identical on every shard, so surface it
                    # exactly like the single engine would.
                    raise outcome.error
                if outcome.reason is not None:
                    reasons.append(outcome.reason)
                    continue
                inner: ResultSet = outcome.payload
                if reasons and not inner.degraded:
                    inner = inner.clone()
                    inner.degraded = True
                    inner.degraded_reason = "; ".join(reasons)
                return inner
        return ResultSet(
            [],
            method=method,
            degraded=True,
            degraded_reason="; ".join(reasons) or "no shard available",
        )
