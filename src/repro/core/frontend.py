"""The query front end every engine shares.

validate (``k``, method) -> refresh -> canonical parse -> result LRU
with single-flight misses -> degradation ladder -> one seam,
``_execute_rung``; plus the per-query trace, profiler and metrics
bookkeeping around it.  Every call looks the LRU up except
``use_cache=False`` and engines without caches.  An entry is a complete
answer and the work it cost: a budgeted caller is served it only when
its budget absorbs that cost (and is charged it), and only complete
answers — not degraded, not fallen back, data version unchanged — are
published.  :meth:`QueryFrontEnd.cached_answer` serves such an answer
without computing anything, under the same rule, so the server can
answer a hit on its event loop.  An engine supplies the hooks: four
constants, ``refresh``, ``_parse_canonical``, ``_data_version`` (cached
engines), ``_run_query``, ``_rung_chain`` (engines with a ladder),
``_execute_rung``.
"""

from __future__ import annotations

import operator
import time
from contextlib import contextmanager
from typing import Callable, Iterator, Optional, Tuple

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
    #: Cached engines: the text -> canonical query memo, and the data
    #: version the caches describe (``refresh`` moves it).
    _parse_cache = None
    _served_version: Optional[int] = None
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
        exits.  Queries on other threads record into the same profiler
        (it is lock-protected).
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
                if budget is not None and budget.request_id is not None:
                    root.tag("request_id", budget.request_id)
            if use_cache and self.enable_caches:
                results = self._serve_cached(query, k, method, budget, fallback, tracer)
            else:
                with trace_span(tracer, "cache_lookup") as csp:
                    csp.tag("outcome", "bypass")
                results = self._run_query(query, k, method, budget, fallback, tracer)
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

    def cached_answer(
        self, text: str, k, method: str, budget: Optional[QueryBudget]
    ) -> Optional[Callable[[], ResultSet]]:
        """A function serving what ``search(text, k=k, method=method,
        budget=budget)`` would serve from the result LRU, if serving it
        computes nothing; else None.

        It comes back only when the engine is current (no ``refresh``
        pending), the parse memo already holds *text* (no parse, no
        cleaning) and the entry passes :meth:`_admits`, the rule every
        search's lookup obeys — so *budget* has been charged the entry's
        recorded cost.  Nothing else moves until the caller calls the
        function: then both memos count and promote the hit, and
        ``<prefix>.cache_hits``, ``.count`` and ``.latency_ms`` count it
        as a search's hit would, so a caller that turns the request
        away (a tenant over its rate) leaves no trace in the engine.
        Neither step runs a query, takes a per-key lock or builds a
        trace, so the server calls both on its event loop.  Always None
        for an engine without a result LRU, and for a traced engine
        (whose answers carry a span tree).
        """
        start_s = time.perf_counter()
        if not self.enable_caches or self.trace_enabled:
            return None
        if self._data_version() != self._served_version:
            return None
        parses = self._parse_cache
        query = parses.peek(text)
        if query is None:
            return None
        cache = self._result_cache
        key = self._query_key(query, method, k)
        entry = cache.peek(key)
        if not self._admits(entry, budget):
            return None
        lookup_ms = (time.perf_counter() - start_s) * 1000.0

        def serve() -> ResultSet:
            serve_s = time.perf_counter()
            parses.touch(text)
            cache.touch(key)
            results = self._served(entry)
            metrics = self.metrics
            metrics.inc(self._m_count)
            metrics.observe(
                self._m_latency, lookup_ms + (time.perf_counter() - serve_s) * 1000.0
            )
            return results

        return serve

    @staticmethod
    def _admits(entry, budget: Optional[QueryBudget]) -> bool:
        """The serve rule for a result-LRU *entry* ``(results, cost)``:
        there is one and *budget* is None or admits (and is charged)
        its recorded cost."""
        return entry is not None and (budget is None or budget.charge(entry[1]))

    def _served(self, entry) -> ResultSet:
        """Count an admitted hit on *entry*; a clone of its results."""
        self.metrics.inc(self._m_cache_hits)
        return entry[0].clone()

    def _serve_cached(
        self,
        query,
        k,
        method: str,
        budget: Optional[QueryBudget],
        fallback: bool,
        tracer: Optional[Tracer],
    ) -> ResultSet:
        """Result-LRU path with per-key single-flight misses.

        An entry is a *complete* answer plus what computing it cost,
        ``(nodes, cns, candidates)``.  A complete top-k is the same
        answer under any budget, so a hit is served to an unbudgeted
        caller as is and to a budgeted one when
        :meth:`QueryBudget.charge` admits the recorded cost.  When it
        does not (a ``max_*`` cap, a passed deadline, a poisoned budget)
        the query runs under its budget as an uncached query does, and
        nothing is published; the lookup's span reads ``over_budget``
        (the LRU's own counters see a hit, ``<prefix>.cache_hits`` only
        answers served).

        On a miss the per-key lock serialises concurrent computations of
        the same query: one thread computes while the rest wait, re-check
        via the non-counting :meth:`LRUCache.peek`, and are served the
        freshly published entry (counted as ``coalesced`` — duplicate
        computations avoided).  Every miss is metered, under the caller's
        budget or a fresh uncapped one, its cost including the budget's
        forks (a sharded query's per-shard work).  The returned set is
        always a clone so callers can sort/slice without poisoning the
        cache; the clone carries its own trace (a cache hit's trace
        describes the lookup, tagged ``cache_hit=True``, never the
        original compute).
        """
        key = self._query_key(query, method, k)
        cache = self._result_cache
        lookup_span = trace_span(tracer, "cache_lookup")
        with lookup_span:
            entry = cache.get(key)
        if entry is not None:
            if self._admits(entry, budget):
                lookup_span.tag("outcome", "hit").tag("cache_hit", True)
                return self._served(entry)
            lookup_span.tag("outcome", "over_budget")
            return self._run_query(query, k, method, budget, fallback, tracer)
        with cache.key_lock(key):
            entry = cache.peek(key)
            if self._admits(entry, budget):
                # A concurrent miss on the same key published while we
                # waited: serve it instead of recomputing.
                cache.stats.record_coalesced()
                self.metrics.inc(self._m_coalesced)
                lookup_span.tag("outcome", "coalesced").tag("cache_hit", True)
                return entry[0].clone()
            lookup_span.tag("outcome", "miss")
            computed_at = self._data_version()
            meter = budget if budget is not None else QueryBudget()
            before = meter.spent()
            results = self._run_query(query, k, method, meter, fallback, tracer)
            # Chaos hook: delay between computing and publishing to the
            # LRU, to widen the race window against concurrent mutation.
            fail_point("cache.result_put", key=query.raw)
            if (
                not results.degraded
                and results.fallback_from is None
                and self._data_version() == computed_at
            ):
                # Only a complete answer is published: not degraded (out
                # of budget, a dead or skipped shard) nor fallen back.
                # Version-guarded: results computed against since-mutated
                # data are served but never cached, so a slow compute
                # can't pin a stale entry past invalidation.
                cost = tuple(map(operator.sub, meter.spent(), before))
                cache.put(key, (results, cost))
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
