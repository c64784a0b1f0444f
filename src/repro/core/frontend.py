"""The query front end every engine shares.

validate (``k``, method) -> refresh -> canonical parse -> result LRU
with single-flight misses, or its bypass -> degradation ladder -> one
seam, ``_execute_rung``; plus the per-query trace, profiler and metrics
bookkeeping around it.  An engine supplies the hooks: four constants,
``refresh``, ``_parse_canonical``, ``_data_version`` (cached engines),
``_run_query``, ``_rung_chain`` (engines with a ladder), ``_execute_rung``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

from repro.core.results import ResultSet
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import Profiler
from repro.obs.trace import Tracer, span as trace_span
from repro.resilience.budget import QueryBudget, make_budget
from repro.resilience.errors import BudgetExceededError, QueryParseError
from repro.resilience.failpoints import fail_point


def validate_k(k, allow_none: bool = False) -> None:
    """The one ``k`` check: a positive ``int`` (not ``bool``), or ``None``
    (every answer) where the engine allows it."""
    if k is None and allow_none:
        return
    if type(k) is not int or k < 1:
        raise QueryParseError(f"k must be a positive integer, got {k!r}")


class QueryFrontEnd:
    """Front half of a search engine; subclasses supply the hooks."""

    #: Prefix of the per-query counters (``<prefix>.count``,
    #: ``.latency_ms``, ``.degraded``, ``.cache_hits``, ``.coalesced``).
    metric_prefix = "query"
    #: What ``search`` accepts as its method, and what errors call it.
    known_methods: Tuple[str, ...] = ()
    method_noun = "method"
    #: Whether ``k=None`` (every answer) is a valid request.
    unbounded_k = False
    #: Result LRU on; when False every query takes the bypass branch.
    enable_caches = False
    _result_cache = None
    #: Last component of every result-cache key; a subclass whose
    #: answers depend on more than (query, method, k) sets it.
    _key_token: Optional[str] = None

    def __init__(self, trace: bool = False, metrics: Optional[MetricsRegistry] = None):
        #: When True, every ``search`` builds a span tree and attaches
        #: it as ``result.trace`` (per-call ``trace=`` wins).
        self.trace_enabled = trace
        #: Named counters / gauges / histograms for this engine: private
        #: by default, so tests and concurrent engines stay isolated
        #: (``metrics=get_global_registry()`` aggregates process-wide).
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        prefix = self.metric_prefix
        self._m_count = f"{prefix}.count"
        self._m_latency = f"{prefix}.latency_ms"
        self._m_degraded = f"{prefix}.degraded"
        self._m_cache_hits = f"{prefix}.cache_hits"
        self._m_coalesced = f"{prefix}.coalesced"
        self._profiler: Optional[Profiler] = None

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

    def refresh(self) -> None:
        """Reconcile derived structures with mutated data (none here)."""

    def _run_query(self, query, k, method, budget, fallback, tracer) -> ResultSet:
        """Prepare or compile *query*, then walk the ladder: by default
        the parsed query is what a rung runs."""
        return self._run_ladder(query, k, method, budget, fallback, tracer)

    def _query_key(self, query, method: str, k) -> Tuple:
        """Cache key: canonical query identity + method + k (+ the
        engine's ``_key_token``).

        *query* may be raw text or an already-parsed query.  Keying on
        the post-parse, post-clean canonical form (not the raw token
        stream) means two texts that clean to the same query share one
        LRU entry, while structurally different queries that happen to
        tokenize identically (``author:smith`` vs ``author smith``) get
        distinct keys.
        """
        if isinstance(query, str):
            query = self._parse_canonical(query)
        return (query.cache_key(), method, k, self._key_token)

    def _search_impl(
        self,
        query,
        k,
        method: str,
        use_cache: bool,
        budget: Optional[QueryBudget],
        timeout_ms: Optional[float],
        max_expansions: Optional[int],
        fallback: bool,
        trace: Optional[bool],
    ) -> ResultSet:
        """What every public ``search`` forwards to; *query* is text or
        an already-parsed canonical query."""
        validate_k(k, self.unbounded_k)
        if method not in self.known_methods:
            raise QueryParseError(
                f"unknown {self.method_noun} {method!r} "
                f"(choices: {', '.join(self.known_methods)})"
            )
        self.refresh()
        if isinstance(query, str):
            query = self._parse_canonical(query)
        if budget is None:
            budget = make_budget(timeout_ms, max_expansions)
        tracing = self.trace_enabled if trace is None else trace
        tracer = Tracer() if tracing else None
        metrics = self.metrics
        metrics.inc(self._m_count)
        start_s = time.perf_counter()
        with trace_span(tracer, "search") as root:
            if tracer is not None:
                root.tag("method", method).tag("k", k).tag("query", query.canonical())
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
        self, query, k, method: str, tracer: Optional[Tracer]
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
            computed_at = self._data_version()
            results = self._run_query(query, k, method, None, False, tracer)
            # Chaos hook: delay between computing and publishing to the
            # LRU, to widen the race window against concurrent mutation.
            fail_point("cache.result_put", key=query.raw)
            if self._data_version() == computed_at and not results.degraded:
                # Version-guarded publish: results computed against
                # since-mutated data are served but never cached, so a
                # slow compute can't pin a stale entry past
                # invalidation.  Nor is a degraded answer (a dead or
                # skipped shard): the next query should retry in full.
                cache.put(key, results)
        return results.clone()

    def _run_ladder(
        self,
        compiled,
        k,
        method: str,
        budget: Optional[QueryBudget],
        fallback: bool,
        tracer: Optional[Tracer] = None,
    ) -> ResultSet:
        """Walk the degradation ladder for a prepared query.

        Each rung goes through :meth:`_execute_rung`, which returns the
        rung's results plus the reasons, if any, the answer is partial
        for a cause other than *budget* running out; a rung counts as
        degraded when its budget ran out or the executor reported
        reasons of its own (a failed or skipped shard).
        """
        chain = self._rung_chain(method) if fallback else (method,)
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
