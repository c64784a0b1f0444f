"""Relational keyword search engine facade.

Wires the full tutorial pipeline over one database:

    query text -> clean (noisy channel + segmentation)
               -> search (schema-based CN top-k | graph-based BANKS |
                          distinct-root over distance index)

Exploration over an engine's answers and substrates — type-ahead,
refinement terms, result differentiation, query forms — is plain
functions beside each technique (:mod:`repro.ambiguity.autocomplete`,
:mod:`repro.analysis.clouds`, :mod:`repro.analysis.differentiation`,
:mod:`repro.forms.matching`), not part of the engine.

Substructures (indexes, graphs, tuple sets) are built lazily and cached.
The serving path layers three caches on top (see :mod:`repro.perf`):
an LRU cache over final results keyed by (normalized query, method, k),
a :class:`~repro.perf.substrates.SubstrateCache` memoising tuple sets /
candidate networks / keyword groups, and
duplicate-query coalescing (:func:`~repro.perf.batch.run_batch`) behind
:meth:`KeywordSearchEngine.search_many`.  All caches invalidate when
:attr:`Database.data_version` moves, so mutations are always visible.
"""

from __future__ import annotations

import threading
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ambiguity.cleaning import QueryCleaner
from repro.core.frontend import QueryFrontEnd
from repro.core.query import Query
from repro.core.results import ResultSet, SearchResult
from repro.graph.data_graph import DataGraph, build_data_graph
from repro.index.distance import KeywordDistanceIndex
from repro.index.inverted import InvertedIndex
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, span as trace_span
from repro.perf.batch import run_batch
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
from repro.resilience.budget import QueryBudget
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
_DATA_DERIVED = ("index", "data_graph", "distance_index")


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
        # text -> canonical StructuredQuery; cleaning depends on the
        # index vocabulary, so this drops whenever data_version moves.
        self._parse_cache = LRUCache(1024)
        self._served_version = db.data_version
        self._sharing_lock = threading.Lock()
        self._sharing: Dict[str, int] = {
            "queries": 0,
            "joins_executed": 0,
            "tuples_read": 0,
            "partials_dropped": 0,
        }
        self._cursors_retired = 0
        # Query cleaner, built once and patched by its first reader after
        # each mutation (see the ``cleaner`` property).
        self._cleaner: Optional[QueryCleaner] = None
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

    @property
    def cleaner(self) -> QueryCleaner:
        """The query cleaner over the current index.

        Built once; the first reader after a mutation takes a copy
        patched with the rows the index absorbed since
        (:meth:`QueryCleaner.refreshed`).  Copy-on-write: a concurrent
        reader sees the old cleaner or the new one, never half of one,
        and two racing readers build equal copies.
        """
        cleaner = self._cleaner
        if cleaner is None:
            cleaner = QueryCleaner(self.index)
        else:
            cleaner = cleaner.refreshed()
        self._cleaner = cleaner
        return cleaner

    @cached_property
    def distance_index(self) -> KeywordDistanceIndex:
        return KeywordDistanceIndex(self.data_graph, self.index)

    # ------------------------------------------------------------------
    # Cache management
    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """Reconcile derived structures with a mutated database.

        Every entry point calls this first, so mutations are visible
        without an explicit call; writers call it to pay the
        maintenance cost at insert time instead of on the next query.

        The substrate cache patches the warm inverted index and
        memoised tuple sets in place (insert-only data model), and the
        query cleaner's first reader patches it from the index (see
        :attr:`cleaner`), so only the graph-derived structures — which
        hold per-tuple nodes — and the query-result caches are dropped;
        they rebuild lazily.  Nothing is patched here: a burst of
        inserts no query reads in between pays for no patch.  If the
        delta could not be applied, everything drops.
        """
        version = self.db.data_version
        if version == self._served_version:
            return
        self._served_version = version
        self.substrates.check_version()
        if not self.substrates.last_delta_applied:
            self.invalidate_caches()
            return
        for attr in ("data_graph", "distance_index"):
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
        self._cleaner = None
        if stale_index is not None:
            # Release backend resources (ephemeral disk segments, mmaps).
            stale_index.close()
        self.substrates.clear()
        self._clear_query_caches()

    def _clear_query_caches(self) -> None:
        self._result_cache.clear()
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
            "substrates": self.substrates.stats(),
            "sharing": sharing,
        }

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _wire_metrics(self) -> None:
        """Surface component counters as callback gauges.

        Callback gauges read the live legacy counters at snapshot time,
        so the LRU / substrate / sharing bookkeeping appears
        in ``metrics.snapshot()`` without double-writing every
        increment.
        """
        reg = self.metrics
        for field in ("hits", "misses", "evictions", "invalidations", "coalesced"):
            reg.register_gauge(
                f"cache.results.{field}",
                lambda f=field: getattr(self._result_cache.stats, f),
            )
        for field in self._sharing:
            reg.register_gauge(
                f"sharing.{field}",
                lambda f=field: self._sharing[f],
            )
        reg.register_gauge("executor.retired", lambda: self._cursors_retired)
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

    def _record_sharing(self, stats) -> None:
        """Fold one schema search's JoinStats into the executor totals:
        index probes, rowids read off index buckets, partials the
        in-slice bound dropped, cursors retired at a tie."""
        with self._sharing_lock:
            totals = self._sharing
            totals["queries"] += 1
            totals["joins_executed"] += stats.joins_executed
            totals["tuples_read"] += stats.tuples_read
            totals["partials_dropped"] += stats.partials_dropped
            self._cursors_retired += stats.cursors_retired

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
        rung exhausts with nothing to show.  Only complete answers are
        cached — never a degraded or fallen-back one — each with the
        work it cost; a budgeted query is served a cached answer only
        when its budget covers that cost, and is charged it, so its
        answer is the one it would have computed.

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
        max_workers: Optional[int] = None,
        budget: Optional[QueryBudget] = None,
        timeout_ms: Optional[float] = None,
        max_expansions: Optional[int] = None,
        fallback: bool = False,
        detailed: bool = False,
    ):
        """Batch search (slides 129-133: shared execution).

        *queries* may mix plain strings, ``(text, method[, k])`` tuples
        and :class:`~repro.perf.batch.BatchQuery` objects.  Duplicate
        requests are computed once, one after another on the calling
        thread; results come back in request order and are identical to
        sequential :meth:`search` calls.

        Failures are isolated per query: an erroring query yields an
        empty :class:`ResultSet` with ``error`` set (or, with
        ``detailed=True``, a full
        :class:`~repro.perf.batch.BatchOutcome`) while its neighbours
        complete normally.

        *budget* bounds the whole batch (one deadline, per-query caps,
        one cancellation: each query ticks a fork of it); ``timeout_ms``
        / ``max_expansions`` alone give every query a fresh budget.

        ``max_workers`` is accepted and ignored: the end-to-end
        benchmark's library child still passes it.
        """
        outcomes = run_batch(
            self,
            queries,
            k=k,
            method=method,
            budget=budget,
            timeout_ms=timeout_ms,
            max_expansions=max_expansions,
            fallback=fallback,
        )
        if detailed:
            return outcomes
        return [outcome.results for outcome in outcomes]

    def _tree_to_joined(self, nodes) -> "JoinedRow":
        from repro.relational.executor import JoinedRow, node_aliases

        ordered = sorted(nodes)
        rows = tuple(self.db.row(tid) for tid in ordered)
        return JoinedRow(node_aliases(len(rows)), rows)
