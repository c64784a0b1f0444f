"""Relational keyword search engine facade.

Wires the full tutorial pipeline over one database:

    query text -> clean (noisy channel + segmentation)
               -> search (schema-based CN top-k | graph-based BANKS |
                          distinct-root over distance index)
               -> analyse (data cloud, co-occurring terms, facets,
                           differentiation, form suggestions)

Substructures (indexes, graphs, tuple sets) are built lazily and cached.
The serving path layers three caches on top (see :mod:`repro.perf`):
an LRU cache over final results keyed by (normalized query, method, k),
a :class:`~repro.perf.substrates.SubstrateCache` memoising tuple sets /
candidate networks / keyword groups / the form pipeline, and a
:class:`~repro.perf.batch.BatchSearchExecutor` behind
:meth:`KeywordSearchEngine.search_many`.  All caches invalidate when
:attr:`Database.data_version` moves, so mutations are always visible.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.ambiguity.autocomplete import Tastier
from repro.ambiguity.cleaning import CleaningResult, QueryCleaner
from repro.analysis.clouds import data_cloud, frequent_cooccurring_terms
from repro.analysis.differentiation import (
    FeatureSet,
    select_features_greedy,
)
from repro.core.query import Query
from repro.core.results import ResultSet, SearchResult
from repro.forms.matching import rank_forms
from repro.graph.data_graph import DataGraph, build_data_graph
from repro.index.distance import KeywordDistanceIndex
from repro.index.inverted import InvertedIndex
from repro.index.text import tokenize
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import Profiler
from repro.obs.trace import Tracer, span as trace_span
from repro.perf.batch import BatchSearchExecutor
from repro.perf.lru import LRUCache
from repro.perf.substrates import SubstrateCache
from repro.query.compiler import (
    CompiledQuery,
    compile_query,
    execute_rung,
    predicate_only_results,
)
from repro.query.parser import StructuredQuery, parse_query
from repro.relational.database import Database
from repro.relational.schema_graph import SchemaGraph
from repro.resilience.budget import QueryBudget, make_budget
from repro.resilience.circuit import CircuitBreaker
from repro.resilience.degradation import KNOWN_METHODS, fallback_chain
from repro.resilience.errors import (
    BudgetExceededError,
    QueryParseError,
    ReproError,
    SubstrateBuildError,
)
from repro.resilience.failpoints import fail_point
from repro.storage import BACKEND_NAMES

#: cached_property-backed structures derived from database *contents*
#: (the schema graph only depends on the schema, which is immutable).
_DATA_DERIVED = ("index", "data_graph", "cleaner", "distance_index", "tastier")


class KeywordSearchEngine:
    """End-to-end keyword search over a relational database.

    The query front end — validate, refresh, canonical parse, result
    LRU with single-flight and version-guarded publish, bypass rules,
    degradation ladder, trace and metrics — lives here once and ends in
    one seam, :meth:`_execute_rung`.  This class implements the seam
    with the local executor; :class:`~repro.sharding.coordinator.
    ShardedSearchEngine` implements it with scatter / route and
    inherits everything else.
    """

    #: Prefix of the per-query counters (``<prefix>.count``,
    #: ``.latency_ms``, ``.degraded``, ``.cache_hits``, ``.coalesced``).
    metric_prefix = "query"

    def __init__(
        self,
        db: Database,
        max_cn_size: int = 4,
        clean_queries: bool = True,
        result_cache_size: int = 512,
        enable_caches: bool = True,
        trace: bool = False,
        metrics: Optional[MetricsRegistry] = None,
        backend: str = "dict",
        backend_options: Optional[Dict[str, object]] = None,
    ):
        if backend not in BACKEND_NAMES:
            raise QueryParseError(
                f"unknown storage backend {backend!r} "
                f"(choices: {', '.join(BACKEND_NAMES)})"
            )
        self.db = db
        #: Storage backend name for the inverted index ("dict",
        #: "columnar", "disk") plus backend-specific options (e.g.
        #: ``{"path": ..., "cache_pages": ...}`` for "disk").
        self.backend_name = backend
        self.backend_options = dict(backend_options) if backend_options else None
        self.max_cn_size = max_cn_size
        self.clean_queries = clean_queries
        self.enable_caches = enable_caches
        self.substrates = SubstrateCache(
            db, lambda: self.index, lambda: self.schema_graph
        )
        self._result_cache = LRUCache(result_cache_size)
        self._refine_cache = LRUCache(max(64, result_cache_size // 4))
        self._forms_cache = LRUCache(64)
        # text -> canonical StructuredQuery; cleaning depends on the
        # index vocabulary, so this drops whenever data_version moves.
        self._parse_cache = LRUCache(1024)
        #: Optional Keyword++ model consulted by the ``expand=kpp``
        #: response-pipeline knob (see :mod:`repro.query.pipeline`).
        self.keyword_model = None
        self._served_version = db.data_version
        #: Last component of every result-cache key; a subclass whose
        #: answers depend on more than (query, method, k) sets it.
        self._key_token: Optional[str] = None
        self._sharing_lock = threading.Lock()
        self._sharing: Dict[str, int] = {
            "queries": 0,
            "joins_executed": 0,
            "joins_saved": 0,
            "reuse_hits": 0,
            "subexpressions_materialized": 0,
            "semijoin_pruned": 0,
        }
        # Shared by every batch executor created against this engine, so
        # repeated substrate-build failures keep tripping it across
        # batches (see repro.resilience.circuit).
        self.circuit_breaker = CircuitBreaker(
            on_transition=self._on_breaker_transition
        )
        #: When True, every :meth:`search` builds a span tree and
        #: attaches it as ``result.trace`` (per-call ``trace=`` wins).
        self.trace_enabled = trace
        #: Named counters / gauges / histograms for this engine; pass
        #: ``metrics=get_global_registry()`` to aggregate process-wide.
        #: A private registry is the default so tests and concurrent
        #: engines stay isolated.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.substrates.metrics = self.metrics
        prefix = self.metric_prefix
        self._m_count = f"{prefix}.count"
        self._m_latency = f"{prefix}.latency_ms"
        self._m_degraded = f"{prefix}.degraded"
        self._m_cache_hits = f"{prefix}.cache_hits"
        self._m_coalesced = f"{prefix}.coalesced"
        self._profiler: Optional[Profiler] = None
        self._wire_metrics()

    # ------------------------------------------------------------------
    # Lazily built shared structures
    # ------------------------------------------------------------------
    @cached_property
    def index(self) -> InvertedIndex:
        try:
            fail_point("engine.index_build")
            return InvertedIndex(
                self.db,
                backend=self.backend_name,
                backend_options=self.backend_options,
            )
        except ReproError:
            raise
        except Exception as exc:
            raise SubstrateBuildError("index", exc) from exc

    @cached_property
    def schema_graph(self) -> SchemaGraph:
        return SchemaGraph(self.db.schema)

    @cached_property
    def data_graph(self) -> DataGraph:
        try:
            fail_point("engine.data_graph_build")
            return build_data_graph(self.db)
        except ReproError:
            raise
        except Exception as exc:
            raise SubstrateBuildError("data_graph", exc) from exc

    @cached_property
    def cleaner(self) -> QueryCleaner:
        return QueryCleaner(self.index)

    @cached_property
    def distance_index(self) -> KeywordDistanceIndex:
        return KeywordDistanceIndex(self.data_graph, self.index)

    @cached_property
    def tastier(self) -> Tastier:
        return Tastier(self.data_graph, self.index)

    # ------------------------------------------------------------------
    # Cache management
    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """Reconcile derived structures with a mutated database.

        Every entry point calls this first, so mutations are visible
        without an explicit call; writers call it to pay the
        maintenance cost at insert time instead of on the next query.

        The substrate cache patches the warm inverted index and
        memoised tuple sets in place (insert-only data model), so only
        the graph-derived structures — which hold per-tuple nodes — and
        the query-result caches are dropped; they rebuild lazily.  If
        the delta could not be applied, everything drops.
        """
        version = self.db.data_version
        if version == self._served_version:
            return
        self._served_version = version
        self.substrates.check_version()
        if not self.substrates.last_delta_applied:
            self.invalidate_caches()
            return
        for attr in ("data_graph", "cleaner", "distance_index", "tastier"):
            self.__dict__.pop(attr, None)
        self._clear_query_caches()

    def warm(self) -> None:
        """Build the inverted index now instead of on the first query."""
        self.index

    def close(self) -> None:
        """Release what the engine owns (index segment files, mmaps).

        Safe to call twice; a later query rebuilds lazily.
        """
        self.invalidate_caches()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def invalidate_caches(self) -> None:
        """Explicitly drop all derived structures and query caches."""
        stale_index = self.__dict__.get("index")
        for attr in _DATA_DERIVED:
            self.__dict__.pop(attr, None)
        if stale_index is not None:
            # Release backend resources (ephemeral disk segments, mmaps).
            stale_index.close()
        self.substrates.clear()
        self._clear_query_caches()

    def _clear_query_caches(self) -> None:
        self._result_cache.clear()
        self._refine_cache.clear()
        self._forms_cache.clear()
        self._parse_cache.clear()

    def cache_stats(self) -> Dict[str, object]:
        """Hit/miss/eviction counters for dashboards and benchmarks.

        Superseded by :meth:`MetricsRegistry.snapshot` (``self.metrics``),
        which folds these counters in as named metrics alongside query
        counters and latency histograms; kept as a thin compatibility
        shim over the same live counters.
        """
        with self._sharing_lock:
            sharing = dict(self._sharing)
        return {
            "results": self._result_cache.stats.as_dict(),
            "refine": self._refine_cache.stats.as_dict(),
            "forms": self._forms_cache.stats.as_dict(),
            "substrates": self.substrates.stats(),
            "sharing": sharing,
        }

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _wire_metrics(self) -> None:
        """Surface component counters as callback gauges.

        Callback gauges read the live legacy counters at snapshot time,
        so the LRU / substrate / sharing / breaker bookkeeping appears
        in ``metrics.snapshot()`` without double-writing every
        increment.
        """
        reg = self.metrics
        caches = (
            ("results", self._result_cache),
            ("refine", self._refine_cache),
            ("forms", self._forms_cache),
        )
        for label, cache in caches:
            for field in ("hits", "misses", "evictions", "invalidations", "coalesced"):
                reg.register_gauge(
                    f"cache.{label}.{field}",
                    lambda c=cache, f=field: getattr(c.stats, f),
                )
        for field in self._sharing:
            reg.register_gauge(
                f"sharing.{field}",
                lambda f=field: self._sharing[f],
            )
        reg.register_gauge(
            "substrates.builds",
            lambda: sum(self.substrates.builds.values()),
        )
        reg.register_gauge(
            "substrates.invalidations", lambda: self.substrates.invalidations
        )
        reg.register_gauge(
            "substrates.patches_applied",
            lambda: self.substrates.patches["applied"],
        )
        reg.register_gauge("substrates.bytes", lambda: self.substrates.memo_bytes())
        # Built-index residency; reads 0 until the lazy index exists so
        # polling metrics never forces a substrate build.
        reg.register_gauge(
            "storage.resident_bytes",
            lambda: (
                self.__dict__["index"].resident_bytes()
                if "index" in self.__dict__
                else 0
            ),
        )
        reg.register_gauge("circuit.state", lambda: self.circuit_breaker.state)
        reg.register_gauge("circuit.opens", lambda: self.circuit_breaker.opens)
        reg.register_gauge(
            "circuit.time_in_state_s",
            lambda: round(self.circuit_breaker.time_in_state_s(), 3),
        )

    def _on_breaker_transition(self, old_state: str, new_state: str) -> None:
        self.metrics.inc(f"circuit.transitions.{new_state}")

    @contextmanager
    def profiled(self) -> Iterator[Profiler]:
        """Trace every query in the block; yields the :class:`Profiler`.

        ::

            with engine.profiled() as prof:
                engine.search("widom xml")
                engine.search("john sigmod")
            print(prof.summary())   # per-stage wall-clock totals

        Tracing reverts to the constructor setting when the block
        exits.  Batch workers record into the same profiler (it is
        lock-protected).
        """
        profiler = Profiler()
        prev_enabled, prev_profiler = self.trace_enabled, self._profiler
        self.trace_enabled = True
        self._profiler = profiler
        try:
            yield profiler
        finally:
            self.trace_enabled = prev_enabled
            self._profiler = prev_profiler

    def _record_sharing(self, stats) -> None:
        """Fold one schema search's JoinStats into the sharing totals."""
        with self._sharing_lock:
            totals = self._sharing
            totals["queries"] += 1
            totals["joins_executed"] += stats.joins_executed
            totals["joins_saved"] += stats.joins_saved
            totals["reuse_hits"] += stats.reuse_hits
            totals["subexpressions_materialized"] += stats.subexpressions_materialized
            totals["semijoin_pruned"] += stats.semijoin_pruned

    def _query_key(self, query, method: str, k: int) -> Tuple:
        """Cache key: canonical StructuredQuery identity + method + k
        (+ the engine's ``_key_token``).

        *query* may be raw text or an already-parsed
        :class:`StructuredQuery`.  Keying on the post-parse,
        post-clean canonical form (not the raw token stream) means two
        texts that clean to the same query share one LRU entry, while
        structurally different queries that happen to tokenize
        identically (``author:smith`` vs ``author smith``) get
        distinct keys.
        """
        if isinstance(query, str):
            query = self._parse_canonical(query)
        return (query.cache_key(), method, k, self._key_token)

    # ------------------------------------------------------------------
    # Query handling
    # ------------------------------------------------------------------
    def parse(self, text: str, tracer: Optional[Tracer] = None) -> Query:
        """Parse and (optionally) clean a raw query string."""
        with trace_span(tracer, "parse") as psp:
            query = Query.parse(text)
            psp.add("keywords", len(query.keywords))
            if not self.clean_queries or not query.keywords:
                return query
            with trace_span(tracer, "clean") as csp:
                cleaning: CleaningResult = self.cleaner.clean(list(query.keywords))
                cleaned = cleaning.cleaned_tokens()
                changed = bool(cleaned) and cleaned != list(query.keywords)
                csp.tag("changed", changed)
            if changed:
                return query.with_keywords(cleaned)
            return query

    def _parse_canonical(self, text: str) -> StructuredQuery:
        """Parse DSL text into the canonical :class:`StructuredQuery`.

        Bare keyword queries go through the same cleaning
        :meth:`parse` applies, so the canonical form (and therefore the
        result-cache key) is clean-invariant.  Memoised per text; the
        memo drops with the other caches whenever the database version
        moves, because cleaning reads the index vocabulary.
        """
        cached = self._parse_cache.get(text) if self.enable_caches else None
        if cached is not None:
            return cached
        query = parse_query(text)
        if self.clean_queries and query.groups and query.is_bare:
            tokens = query.bare_keywords()
            cleaning: CleaningResult = self.cleaner.clean(list(tokens))
            cleaned = cleaning.cleaned_tokens()
            if cleaned and cleaned != tokens:
                query = query.with_bare_keywords(cleaned)
        if self.enable_caches:
            self._parse_cache.put(text, query)
        return query

    def suggest(self, prefix: str, limit: int = 8) -> List[str]:
        """Type-ahead keyword completions."""
        return self.tastier.complete_keyword(prefix, limit=limit)

    def suggest_answers(
        self,
        prefixes: Sequence[str],
        k: int = 10,
        budget: Optional[QueryBudget] = None,
        timeout_ms: Optional[float] = None,
        max_expansions: Optional[int] = None,
    ):
        """Budgeted TASTIER type-ahead answers (prefix keyword search).

        Threads an optional :class:`QueryBudget` through
        :meth:`Tastier.search`; on exhaustion the best partial
        :class:`~repro.ambiguity.autocomplete.TastierResult` comes back
        with ``degraded`` set instead of scanning the rest of the
        vocabulary range.
        """
        self.refresh()
        if budget is None:
            budget = make_budget(timeout_ms, max_expansions)
        return self.tastier.search(list(prefixes), k=k, budget=budget)

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(
        self,
        text: str,
        k: int = 10,
        method: str = "schema",
        use_cache: bool = True,
        budget: Optional[QueryBudget] = None,
        timeout_ms: Optional[float] = None,
        max_expansions: Optional[int] = None,
        fallback: bool = False,
        trace: Optional[bool] = None,
    ) -> ResultSet:
        """Top-k search.

        ``method`` selects the algorithm family the tutorial contrasts:
        ``"schema"`` (CN enumeration + global-pipeline top-k),
        ``"banks"`` (backward expansion), ``"banks2"`` (frontier
        prioritised), ``"steiner"`` (exact group Steiner tree, top-1),
        ``"distinct_root"`` (index-assisted distinct-root semantics),
        ``"ease"`` (r-radius Steiner subgraphs), ``"index_only"``
        (single-tuple TF·IDF scoring straight off the inverted index).

        ``use_cache=False`` bypasses the result LRU (substrate memos
        still apply); results are identical either way.

        Resilience knobs: a :class:`QueryBudget` (or the ``timeout_ms``
        / ``max_expansions`` shorthands) bounds the query; exhaustion
        returns the best partial results with ``degraded`` set instead
        of raising.  ``fallback=True`` additionally descends the
        degradation ladder (e.g. steiner → banks → index_only) when a
        rung exhausts with nothing to show.  Budgeted or ladder queries
        bypass the result LRU so partial answers are never cached.

        ``trace=True`` (or ``KeywordSearchEngine(trace=True)``) attaches
        a span tree covering the pipeline stages as ``result.trace``;
        tracing never changes the evaluation order, so results are
        byte-identical with it on or off.

        *text* may use the fielded query DSL (``author:smith``,
        ``year:2008..2012``, ``AND``/``OR``/``NOT``, quoted phrases,
        ``term^2`` — see :mod:`repro.query.parser`).  Every query,
        bare keywords included, compiles to a
        :class:`~repro.query.compiler.CompiledQuery` and runs through
        one lowering per method; a bare query is the one-branch case
        with nothing to filter, weight or merge.  An already-parsed
        :class:`StructuredQuery` is accepted in place of text (the
        response pipeline passes its rewritten query); a bare one
        answers byte-identically to ``search(query.raw, ...)``.
        """
        self.refresh()
        if method not in KNOWN_METHODS:
            raise QueryParseError(
                f"unknown method {method!r} (choices: {', '.join(KNOWN_METHODS)})"
            )
        return self._search_impl(
            self._parse_canonical(text) if isinstance(text, str) else text,
            k=k,
            method=method,
            use_cache=use_cache,
            budget=budget if budget is not None else make_budget(timeout_ms, max_expansions),
            fallback=fallback,
            trace=trace,
        )

    def _search_impl(
        self,
        query: StructuredQuery,
        k: int,
        method: str,
        use_cache: bool,
        budget: Optional[QueryBudget],
        fallback: bool,
        trace: Optional[bool],
    ) -> ResultSet:
        tracing = self.trace_enabled if trace is None else trace
        tracer = Tracer() if tracing else None
        metrics = self.metrics
        metrics.inc(self._m_count)
        start_s = time.perf_counter()
        with trace_span(tracer, "search") as root:
            if tracer is not None:
                root.tag("method", method).tag("k", k)
                root.tag("query", query.canonical())
            if budget is not None or fallback or not (use_cache and self.enable_caches):
                # Budgeted and ladder answers may be partial: never cached.
                with trace_span(tracer, "cache_lookup") as csp:
                    csp.tag("outcome", "bypass")
                results = self._run_query(query, k, method, budget, fallback, tracer)
            else:
                results = self._serve_cached(query, k, method, tracer)
        metrics.observe(self._m_latency, (time.perf_counter() - start_s) * 1000.0)
        if results.degraded:
            metrics.inc(self._m_degraded)
        if budget is not None and budget.exhausted:
            metrics.inc("budget.exhausted")
        if tracer is not None:
            finished = tracer.finish()
            results.trace = finished
            profiler = self._profiler
            if profiler is not None:
                profiler.record(finished)
        return results

    def _serve_cached(
        self, query: StructuredQuery, k: int, method: str, tracer: Optional[Tracer]
    ) -> ResultSet:
        """Result-LRU path with per-key single-flight misses.

        The first lookup counts a hit or miss as before.  On a miss the
        per-key lock serialises concurrent computations of the same
        query: one thread computes while the rest wait, re-check via the
        non-counting :meth:`LRUCache.peek`, and are served the freshly
        published entry (counted as ``coalesced`` — duplicate
        computations avoided).  The returned set is always a clone so
        callers can sort/slice without poisoning the cache; the clone
        carries its own trace (a cache hit's trace describes the
        lookup, tagged ``cache_hit=True``, never the original compute)
        while degradation metadata is preserved from the cached entry.
        """
        key = self._query_key(query, method, k)
        cache = self._result_cache
        lookup_span = trace_span(tracer, "cache_lookup")
        with lookup_span as csp:
            cached = cache.get(key)
            if cached is not None:
                csp.tag("outcome", "hit").tag("cache_hit", True)
        if cached is not None:
            self.metrics.inc(self._m_cache_hits)
            return cached.clone()
        with cache.key_lock(key):
            cached = cache.peek(key)
            if cached is not None:
                # A concurrent miss on the same key published while we
                # waited: serve it instead of recomputing.
                cache.stats.record_coalesced()
                self.metrics.inc(self._m_coalesced)
                lookup_span.tag("outcome", "coalesced").tag("cache_hit", True)
                return cached.clone()
            lookup_span.tag("outcome", "miss")
            computed_at = self.db.data_version
            results = self._run_query(query, k, method, None, False, tracer)
            # Chaos hook: delay between computing and publishing to the
            # LRU, to widen the race window against concurrent mutation.
            fail_point("cache.result_put", key=query.raw)
            if self.db.data_version == computed_at and not results.degraded:
                # Version-guarded publish: results computed against a
                # since-mutated database are served but never cached, so
                # a slow compute can't pin a stale entry past
                # invalidation.  Nor is a degraded answer (a dead or
                # skipped shard): the next query should retry in full.
                cache.put(key, results)
        return results.clone()

    def _trace_parse(self, query: StructuredQuery, tracer: Tracer) -> None:
        """Emit the ``parse`` / ``clean`` stages for an already-parsed query.

        The canonical parse is memoised outside the trace, so the spans
        are re-emitted here; nothing is parsed or cleaned twice."""
        with trace_span(tracer, "parse") as psp:
            psp.add("keywords", sum(len(g) for g in query.groups))
            psp.tag("bare", query.is_bare)
            if self.clean_queries and query.groups:
                with trace_span(tracer, "clean") as csp:
                    csp.tag("changed", query.cleaned_from is not None)

    def _run_query(
        self,
        query: StructuredQuery,
        k: int,
        method: str,
        budget: Optional[QueryBudget],
        fallback: bool,
        tracer: Optional[Tracer] = None,
    ) -> ResultSet:
        """Compile a canonical query onto *method* and run the ladder."""
        fail_point("engine.search", key=query.raw)
        if tracer is not None:
            self._trace_parse(query, tracer)
        if query.is_empty:
            return ResultSet(method=method)
        with trace_span(tracer, "compile") as csp:
            compiled = compile_query(self, query)
            csp.add("branches", len(compiled.branches))
            csp.tag("filtered", compiled.row_filter is not None)
        if not compiled.branches:
            # Pure-structural query (predicates only): return the
            # satisfying rows directly, no keywords to join on.
            with trace_span(tracer, "evaluate"):
                return ResultSet(
                    predicate_only_results(self, compiled, k), method=method
                )
        return self._run_ladder(compiled, k, method, budget, fallback, tracer)

    def _run_ladder(
        self,
        compiled: CompiledQuery,
        k: int,
        method: str,
        budget: Optional[QueryBudget],
        fallback: bool,
        tracer: Optional[Tracer] = None,
    ) -> ResultSet:
        """Walk the degradation ladder for a compiled query.

        Each rung goes through :meth:`_execute_rung`; a rung counts as
        degraded when its budget ran out or the executor reported
        reasons of its own (a failed or skipped shard).
        """
        chain = fallback_chain(method) if fallback else (method,)
        last_reason: Optional[str] = None
        for i, rung in enumerate(chain):
            if i > 0 and budget is not None:
                budget.renew()
            is_last = i == len(chain) - 1
            try:
                if budget is not None:
                    # Already cancelled or past the deadline (a batch
                    # query that starts late): build nothing.
                    budget.checkpoint()
                results, reasons = self._execute_rung(compiled, k, rung, budget, tracer)
            except BudgetExceededError as exc:
                # Exhaustion escaped an algorithm with no partial answer.
                last_reason = str(exc)
                if is_last:
                    break
                continue
            except QueryParseError:
                raise
            except ValueError as exc:
                # Structurally infeasible rung (e.g. steiner group cap).
                if not fallback:
                    raise
                last_reason = str(exc)
                if is_last:
                    break
                continue
            if not reasons and budget is not None and budget.exhausted:
                reasons = (budget.reason or "budget exhausted",)
            if results or not reasons or is_last:
                fell_back = rung != method
                return ResultSet(
                    results,
                    method=rung,
                    degraded=bool(reasons) or fell_back,
                    degraded_reason="; ".join(reasons)
                    or (last_reason if fell_back else None),
                    fallback_from=method if fell_back else None,
                )
            # Degraded with nothing to show: descend the ladder.
            last_reason = "; ".join(reasons)
        return ResultSet(
            [],
            method=chain[-1],
            degraded=True,
            degraded_reason=last_reason or "budget exhausted",
            fallback_from=method if chain[-1] != method else None,
        )

    def _execute_rung(
        self,
        compiled: CompiledQuery,
        k: int,
        rung: str,
        budget: Optional[QueryBudget],
        tracer: Optional[Tracer] = None,
    ) -> Tuple[List[SearchResult], Sequence[str]]:
        """The execute seam: run one ladder rung, here and now.

        Returns the rung's results plus the reasons, if any, the answer
        is partial for a cause other than *budget* running out — none
        for this local executor
        (:func:`repro.query.compiler.execute_rung`).
        """
        return execute_rung(self, compiled, k, rung, budget, tracer), ()

    def search_many(
        self,
        queries: Sequence,
        k: int = 10,
        method: str = "schema",
        max_workers: int = 8,
        budget: Optional[QueryBudget] = None,
        timeout_ms: Optional[float] = None,
        max_expansions: Optional[int] = None,
        fallback: bool = False,
        raise_on_error: bool = False,
        detailed: bool = False,
    ):
        """Concurrent batch search (slides 129-133: shared execution).

        *queries* may mix plain strings, ``(text, method[, k])`` tuples
        and :class:`~repro.perf.batch.BatchQuery` objects.  Duplicate
        requests are computed once; results come back in request order
        and are identical to sequential :meth:`search` calls.

        Failures are isolated per query: an erroring query yields an
        empty :class:`ResultSet` with ``error`` set (or, with
        ``detailed=True``, a full
        :class:`~repro.perf.batch.BatchOutcome`) while its neighbours
        complete normally.  ``raise_on_error=True`` restores the old
        fail-the-batch behavior.

        *budget* bounds the whole batch (one deadline, per-query caps,
        one cancellation: each query ticks a fork of it); ``timeout_ms``
        / ``max_expansions`` alone give every query a fresh budget.
        """
        executor = BatchSearchExecutor(self, max_workers=max_workers)
        options = {
            "k": k,
            "method": method,
            "budget": budget,
            "timeout_ms": timeout_ms,
            "max_expansions": max_expansions,
            "fallback": fallback,
        }
        if detailed:
            return executor.run_outcomes(queries, **options)
        return executor.run(queries, raise_on_error=raise_on_error, **options)

    def _tree_to_joined(self, nodes) -> "JoinedRow":
        from repro.relational.executor import JoinedRow

        ordered = sorted(nodes)
        rows = tuple(self.db.row(tid) for tid in ordered)
        aliases = tuple(f"n{i}" for i in range(len(rows)))
        return JoinedRow(aliases, rows)

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------
    def refine_terms(
        self,
        text: str,
        k: int = 8,
        mode: str = "cooccurrence",
        use_cache: bool = True,
    ) -> List[Tuple[str, float]]:
        """Suggested refinement terms for a query (slides 76-78)."""
        self.refresh()
        if use_cache and self.enable_caches:
            key = (tuple(tokenize(text)), k, mode)
            cached = self._refine_cache.get_or_compute(
                key, lambda: self._refine_terms_uncached(text, k, mode)
            )
            return list(cached)
        return self._refine_terms_uncached(text, k, mode)

    def _refine_terms_uncached(
        self, text: str, k: int, mode: str
    ) -> List[Tuple[str, float]]:
        query = self.parse(text)
        if mode == "cooccurrence":
            return [
                (t, float(c))
                for t, c in frequent_cooccurring_terms(
                    self.index, list(query.keywords), k=k
                )
            ]
        results = self.search(text, k=20)
        rows = [row for r in results for row in r.joined.distinct_rows()]
        return data_cloud(self.db, rows, list(query.keywords), k=k)

    def differentiate(
        self, results: Sequence[SearchResult], budget: int = 3
    ) -> Dict[object, List[Tuple[str, str]]]:
        """Comparison table across results (slides 149-153)."""
        sets = []
        for i, result in enumerate(results):
            features = []
            for row in result.joined.distinct_rows():
                for column in row.table.schema.text_columns:
                    value = row[column]
                    if value is not None:
                        features.append((f"{row.table.name}:{column}", str(value)))
            sets.append(FeatureSet.of(i, features))
        select_features_greedy(sets, budget=budget)
        return {fs.result_id: sorted(fs.selected) for fs in sets}

    def suggest_forms(self, text: str, k: int = 5):
        """Ranked query forms for the keyword query (slides 54-58).

        The skeleton → form → :class:`FormIndex` pipeline only depends
        on the schema and database contents, so it is memoised in the
        substrate cache and reused across calls; only ranking runs per
        query.
        """
        self.refresh()
        query = self.parse(text)
        key = (tuple(query.keywords), k)
        cached = self._forms_cache.get(key) if self.enable_caches else None
        if cached is not None:
            return list(cached)
        _, _, form_index = self.substrates.form_pipeline(max_skeleton_size=3)
        ranked = rank_forms(form_index, list(query.keywords), k=k)
        if self.enable_caches:
            self._forms_cache.put(key, ranked)
        return list(ranked)
