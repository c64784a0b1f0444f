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
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ambiguity.autocomplete import Tastier
from repro.ambiguity.cleaning import QueryCleaner
from repro.analysis.clouds import data_cloud, frequent_cooccurring_terms
from repro.analysis.differentiation import (
    FeatureSet,
    select_features_greedy,
)
from repro.core.frontend import QueryFrontEnd
from repro.core.query import Query
from repro.core.results import ResultSet, SearchResult
from repro.forms.matching import rank_forms
from repro.graph.data_graph import DataGraph, build_data_graph
from repro.index.distance import KeywordDistanceIndex
from repro.index.inverted import InvertedIndex
from repro.index.text import tokenize
from repro.obs.metrics import MetricsRegistry
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
    QueryParseError,
    ReproError,
    SubstrateBuildError,
)
from repro.resilience.failpoints import fail_point
from repro.storage import BACKEND_NAMES

#: cached_property-backed structures derived from database *contents*
#: (the schema graph only depends on the schema, which is immutable).
_DATA_DERIVED = ("index", "data_graph", "cleaner", "distance_index", "tastier")


class KeywordSearchEngine(QueryFrontEnd):
    """End-to-end keyword search over a relational database.

    Keeps what is relational — lazy substrates, caches, compile — and
    implements the front end's seam, :meth:`_execute_rung`, with the
    local executor; :class:`~repro.sharding.coordinator.
    ShardedSearchEngine` implements it with scatter / route and
    inherits everything else.
    """

    known_methods = KNOWN_METHODS

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
        super().__init__(trace=trace, metrics=metrics)
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
        self._sharing_lock = threading.Lock()
        self._sharing: Dict[str, int] = {
            "queries": 0,
            "joins_executed": 0,
            "tuples_read": 0,
            "partials_dropped": 0,
        }
        # Shared by every batch executor created against this engine, so
        # repeated substrate-build failures keep tripping it across
        # batches (see repro.resilience.circuit).
        self.circuit_breaker = CircuitBreaker(
            on_transition=self._on_breaker_transition
        )
        self.substrates.metrics = self.metrics
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

    def _record_sharing(self, stats) -> None:
        """Fold one schema search's JoinStats into the executor totals:
        index probes, rowids read off index buckets, partials the
        in-slice bound dropped."""
        with self._sharing_lock:
            totals = self._sharing
            totals["queries"] += 1
            totals["joins_executed"] += stats.joins_executed
            totals["tuples_read"] += stats.tuples_read
            totals["partials_dropped"] += stats.partials_dropped

    def _data_version(self) -> int:
        return self.db.data_version

    # ------------------------------------------------------------------
    # Query handling
    # ------------------------------------------------------------------
    def parse(self, text: str) -> Query:
        """Parse and (optionally) clean a raw query string."""
        query = Query.parse(text)
        cleaned = self._cleaned(list(query.keywords))
        return query if cleaned is None else query.with_keywords(cleaned)

    def _cleaned(self, tokens: List[str]) -> Optional[List[str]]:
        """*tokens* after query cleaning, or None when they stand."""
        if not self.clean_queries or not tokens:
            return None
        cleaned = self.cleaner.clean(tokens).cleaned_tokens()
        return cleaned if cleaned and cleaned != tokens else None

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
        if query.groups and query.is_bare:
            cleaned = self._cleaned(query.bare_keywords())
            if cleaned is not None:
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
        return self._search_impl(
            text, k, method, use_cache, budget, timeout_ms, max_expansions, fallback, trace
        )

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
            # The canonical parse is memoised outside the trace, so its
            # stages are re-emitted here; nothing is parsed or cleaned twice.
            with tracer.span("parse") as psp:
                psp.add("keywords", sum(len(g) for g in query.groups))
                psp.tag("bare", query.is_bare)
                if self.clean_queries and query.groups:
                    with tracer.span("clean") as csp:
                        csp.tag("changed", query.cleaned_from is not None)
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

    _rung_chain = staticmethod(fallback_chain)

    def _execute_rung(
        self,
        compiled: CompiledQuery,
        k: int,
        rung: str,
        budget: Optional[QueryBudget],
        tracer: Optional[Tracer] = None,
    ) -> Tuple[List[SearchResult], Sequence[str]]:
        """The execute seam: run one ladder rung, here and now, on the
        local executor — which has no reasons of its own to report."""
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
