"""Observability layer: tracing spans, metrics registry, profiling hooks.

Covers the obs primitives (span trees, log-scale histograms, registry),
the traced-vs-untraced parity contract across every engine method, the
>= 6-stage span coverage guarantee, and the three serving/caching-path
regression fixes this PR ships:

* single-flight ``LRUCache.get_or_compute`` (concurrent misses compute
  once, duplicates counted as ``coalesced``);
* thread-exact cache statistics (``hits + misses == lookups`` under a
  concurrent batch);
* cache hits preserving ``degraded`` / ``degraded_reason`` while
  carrying a fresh ``cache_hit=True`` lookup trace.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.core.factory import build_engine
from repro.core.results import ResultSet
from repro.core.xml_engine import XmlSearchEngine
from repro.datasets.bibliographic import tiny_bibliographic_db
from repro.datasets.xml_corpora import slide_conf_tree
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.trace import NULL_SPAN, Tracer, format_trace, span as trace_span
from repro.perf.lru import LRUCache

METHODS = [
    "schema",
    "banks",
    "banks2",
    "steiner",
    "distinct_root",
    "ease",
    "index_only",
]
XML_SEMANTICS = ["slca", "multiway", "elca"]

# Pipeline stages the ISSUE requires every traced computed query to
# cover (the span taxonomy is per-method; six distinct names minimum).
REQUIRED_MIN_STAGES = 6


def result_signature(results):
    """Comparable identity of a result list: scores, labels, tuples."""
    return [(r.score, r.network, tuple(r.tuple_ids())) for r in results]


def xml_signature(results):
    return [(r.score, r.root) for r in results]


# ----------------------------------------------------------------------
# Tracer / span primitives
# ----------------------------------------------------------------------
class TestTracer:
    def test_nested_span_tree(self):
        tracer = Tracer()
        with tracer.span("search") as root:
            root.tag("method", "schema")
            with tracer.span("parse") as p:
                p.add("keywords", 2)
                with tracer.span("clean"):
                    pass
            with tracer.span("evaluate") as e:
                e.add("cns", 3)
        trace = tracer.finish()
        assert trace.span_names() == ["search", "parse", "clean", "evaluate"]
        root = trace.find("search")
        assert root.tags["method"] == "schema"
        assert [c.name for c in root.children] == ["parse", "evaluate"]
        assert trace.find("parse").counters["keywords"] == 2
        assert all(s.duration_ms >= 0.0 for s in trace.spans())

    def test_record_attaches_pre_measured_child(self):
        tracer = Tracer()
        with tracer.span("evaluate"):
            tracer.record("score", 0.001, {"results": 4})
        trace = tracer.finish()
        score = trace.find("score")
        assert score.counters["results"] == 4
        assert score.duration_ms == pytest.approx(1.0)
        assert [c.name for c in trace.find("evaluate").children] == ["score"]

    def test_null_span_when_tracer_is_none(self):
        sp = trace_span(None, "anything")
        assert sp is NULL_SPAN
        with sp as inner:
            # Chainable no-ops, nothing recorded anywhere.
            inner.tag("a", 1).add("b", 2)

    def test_error_tagging(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("search"):
                raise ValueError("boom")
        trace = tracer.finish()
        assert trace.find("search").tags["error"] == "ValueError"

    def test_exports(self):
        tracer = Tracer()
        with tracer.span("search"):
            with tracer.span("parse"):
                pass
        trace = tracer.finish()
        as_json = json.loads(trace.to_json())
        assert as_json["name"] == "search"
        assert as_json["children"][0]["name"] == "parse"
        events = trace.to_chrome_trace()
        assert {e["name"] for e in events} == {"search", "parse"}
        assert all(e["ph"] == "X" for e in events)
        rendered = format_trace(trace)
        assert "search" in rendered and "parse" in rendered


# ----------------------------------------------------------------------
# Histogram / metrics registry
# ----------------------------------------------------------------------
class TestHistogram:
    def test_percentiles_within_bucket_error(self):
        hist = Histogram("h")
        for v in range(1, 1001):
            hist.observe(float(v))
        snap = hist.snapshot()
        assert snap["count"] == 1000
        assert snap["min"] == 1.0 and snap["max"] == 1000.0
        # Log-bucket resolution: ~±7.5% relative error at 32/decade.
        assert snap["p50"] == pytest.approx(500.0, rel=0.08)
        assert snap["p95"] == pytest.approx(950.0, rel=0.08)
        assert snap["p99"] == pytest.approx(990.0, rel=0.08)
        assert snap["mean"] == pytest.approx(500.5, rel=0.001)

    def test_percentiles_clamped_to_observed_range(self):
        hist = Histogram("h")
        hist.observe(42.0)
        snap = hist.snapshot()
        assert snap["p50"] == snap["p95"] == snap["p99"] == 42.0

    def test_non_positive_values_use_underflow_bucket(self):
        hist = Histogram("h")
        hist.observe(0.0)
        hist.observe(-1.0)
        hist.observe(10.0)
        snap = hist.snapshot()
        assert snap["count"] == 3
        assert snap["min"] == -1.0

    def test_skewed_distribution(self):
        hist = Histogram("h")
        for _ in range(99):
            hist.observe(1.0)
        hist.observe(1000.0)
        snap = hist.snapshot()
        assert snap["p50"] == pytest.approx(1.0, rel=0.08)
        assert snap["p99"] == pytest.approx(1.0, rel=0.08)
        assert snap["max"] == 1000.0


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        reg.inc("q.count")
        reg.inc("q.count", 2)
        reg.counter("q.count")  # get-or-create returns the same counter
        reg.gauge("pool.size").set(7)
        reg.observe("latency_ms", 5.0)
        snap = reg.snapshot()
        assert snap["q.count"] == 3
        assert snap["pool.size"] == 7
        assert snap["latency_ms"]["count"] == 1

    def test_callback_gauges_read_live_values(self):
        reg = MetricsRegistry()
        state = {"v": 1}
        reg.register_gauge("live", lambda: state["v"])
        assert reg.snapshot()["live"] == 1
        state["v"] = 9
        assert reg.snapshot()["live"] == 9

    def test_cross_type_name_conflict_raises(self):
        reg = MetricsRegistry()
        reg.inc("x")
        with pytest.raises(ValueError):
            reg.histogram("x")

    def test_reset_keeps_registrations(self):
        reg = MetricsRegistry()
        reg.inc("x", 5)
        reg.register_gauge("live", lambda: 3)
        reg.reset()
        snap = reg.snapshot()
        assert snap["x"] == 0
        assert snap["live"] == 3


# ----------------------------------------------------------------------
# Traced vs untraced parity + span coverage
# ----------------------------------------------------------------------
PARITY_QUERY = "john database"


@pytest.mark.parametrize("method", METHODS)
def test_traced_results_byte_identical(method):
    engine = KeywordSearchEngine(tiny_bibliographic_db())
    plain = engine.search(PARITY_QUERY, k=5, method=method, use_cache=False)
    traced = engine.search(
        PARITY_QUERY, k=5, method=method, use_cache=False, trace=True
    )
    assert result_signature(plain) == result_signature(traced)
    assert plain.trace is None
    assert traced.trace is not None


@pytest.mark.parametrize("budgeted", [False, True], ids=["unbudgeted", "budgeted"])
def test_traced_parity_schema_executor(budgeted):
    engine = KeywordSearchEngine(tiny_bibliographic_db())
    knobs = {"timeout_ms": 60_000.0} if budgeted else {}
    plain = engine.search(PARITY_QUERY, k=5, use_cache=False, **knobs)
    traced = engine.search(PARITY_QUERY, k=5, use_cache=False, trace=True, **knobs)
    assert result_signature(plain) == result_signature(traced)
    names = set(traced.trace.span_names())
    assert {"plan", "score", "evaluate", "topk"} <= names


@pytest.mark.parametrize("semantics", XML_SEMANTICS)
def test_xml_traced_results_byte_identical(semantics):
    engine = XmlSearchEngine(slide_conf_tree())
    plain = engine.search("keyword mark", k=5, semantics=semantics)
    traced = engine.search("keyword mark", k=5, semantics=semantics, trace=True)
    assert xml_signature(plain) == xml_signature(traced)
    assert traced.trace is not None
    assert len(set(traced.trace.span_names())) >= REQUIRED_MIN_STAGES


@pytest.mark.parametrize("method", METHODS)
def test_span_coverage_at_least_six_stages(method):
    engine = KeywordSearchEngine(tiny_bibliographic_db(), trace=True)
    results = engine.search(PARITY_QUERY, k=5, method=method, use_cache=False)
    assert results, f"{method} returned nothing for {PARITY_QUERY!r}"
    names = results.trace.span_names()
    assert len(set(names)) >= REQUIRED_MIN_STAGES, names
    assert names[0] == "search"
    # Each span carries a non-negative wall-clock duration.
    assert all(s.duration_ms >= 0.0 for s in results.trace.spans())


def test_engine_trace_flag_and_per_call_override():
    engine = KeywordSearchEngine(tiny_bibliographic_db(), trace=True)
    assert engine.search(PARITY_QUERY, k=3, use_cache=False).trace is not None
    # Per-call override wins in both directions.
    assert (
        engine.search(PARITY_QUERY, k=3, use_cache=False, trace=False).trace
        is None
    )
    engine2 = KeywordSearchEngine(tiny_bibliographic_db())
    assert engine2.search(PARITY_QUERY, k=3, use_cache=False).trace is None


def test_profiled_context_manager():
    engine = KeywordSearchEngine(tiny_bibliographic_db())
    with engine.profiled() as profiler:
        engine.search(PARITY_QUERY, k=3, use_cache=False)
        engine.search("levy fagin", k=3, use_cache=False)
    assert engine.trace_enabled is False  # restored
    assert len(profiler) == 2
    totals = profiler.stage_totals()
    assert totals["search"]["calls"] == 2
    assert totals["parse"]["calls"] == 2


# ----------------------------------------------------------------------
# Metrics wiring: engine counters, latency histogram, legacy shim
# ----------------------------------------------------------------------
def test_engine_metrics_snapshot_supersedes_cache_stats():
    engine = KeywordSearchEngine(tiny_bibliographic_db())
    engine.search(PARITY_QUERY, k=3)
    engine.search(PARITY_QUERY, k=3)  # LRU hit
    snap = engine.metrics.snapshot()
    assert snap["query.count"] == 2
    assert snap["query.cache_hits"] == 1
    assert snap["query.latency_ms"]["count"] == 2
    # Callback gauges mirror the legacy counters exactly — no dual-write.
    legacy = engine.cache_stats()
    assert snap["cache.results.hits"] == legacy["results"]["hits"] == 1
    assert snap["cache.results.misses"] == legacy["results"]["misses"] == 1
    assert snap["circuit.state"] == "closed"


def test_xml_engine_metrics():
    engine = XmlSearchEngine(slide_conf_tree())
    engine.search("keyword mark", k=3)
    snap = engine.metrics.snapshot()
    assert snap["query.count"] == 1
    assert snap["query.latency_ms"]["count"] == 1


def test_substrate_build_histograms_recorded():
    engine = KeywordSearchEngine(tiny_bibliographic_db())
    engine.search(PARITY_QUERY, k=3, use_cache=False)
    snap = engine.metrics.snapshot()
    assert snap["substrates.build_ms.tuple_sets"]["count"] >= 1


# ----------------------------------------------------------------------
# Regression 1: single-flight get_or_compute
# ----------------------------------------------------------------------
class TestSingleFlight:
    def test_concurrent_misses_compute_once(self):
        """Pre-fix, N racing misses each ran compute(); now exactly one
        computes and the rest are served the published entry."""
        cache = LRUCache(8)
        computes = []
        barrier = threading.Barrier(6)

        def compute():
            computes.append(1)
            time.sleep(0.05)  # hold the key lock open across the race
            return "value"

        def worker(out):
            barrier.wait()
            out.append(cache.get_or_compute("k", compute))

        served: list = []
        threads = [
            threading.Thread(target=worker, args=(served,)) for _ in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert served == ["value"] * 6
        assert len(computes) == 1
        assert cache.stats.coalesced == 5
        # The first lookups all counted as misses; no phantom hits.
        assert cache.stats.hits + cache.stats.misses == cache.stats.requests

    def test_coalesced_never_counts_as_hit_or_miss(self):
        cache = LRUCache(8)
        cache.get_or_compute("k", lambda: 1)
        before = (cache.stats.hits, cache.stats.misses)
        with cache.key_lock("k"):
            assert cache.peek("k") == 1
        assert (cache.stats.hits, cache.stats.misses) == before

    def test_distinct_keys_do_not_serialize(self):
        cache = LRUCache(8)
        order = []

        def slow(tag):
            order.append(tag)
            time.sleep(0.05)
            return tag

        t = threading.Thread(
            target=lambda: cache.get_or_compute("a", lambda: slow("a"))
        )
        t.start()
        time.sleep(0.01)
        start = time.perf_counter()
        cache.get_or_compute("b", lambda: slow("b"))
        elapsed = time.perf_counter() - start
        t.join()
        # "b"'s own compute sleeps 0.05s; had it also waited for "a"'s
        # key lock it would take ~0.09s (generous CI margin).
        assert elapsed < 0.085
        assert sorted(order) == ["a", "b"]

    def test_engine_concurrent_same_query_computes_once(self):
        # Both engine kinds serve through one single-flighted LRU path.
        for options in ({}, {"shards": 2}):
            engine = build_engine(tiny_bibliographic_db(), **options)
            engine.search(PARITY_QUERY, k=3)  # warm substrates, then clear
            engine._result_cache.clear()
            barrier = threading.Barrier(4)
            sigs = []

            def worker():
                barrier.wait()
                sigs.append(result_signature(engine.search(PARITY_QUERY, k=3)))

            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert all(s == sigs[0] for s in sigs)
            stats = engine.cache_stats()["results"]
            # Every duplicate miss was coalesced onto the one compute.
            assert stats["misses"] + stats["hits"] + stats["coalesced"] >= 4
            assert stats["misses"] >= 1
            snap = engine.metrics.snapshot()
            prefix = engine.metric_prefix
            assert (
                snap.get(f"{prefix}.coalesced", 0) == stats["coalesced"]
            ), options
            engine.close()


# ----------------------------------------------------------------------
# Regression 2: thread-exact cache statistics
# ----------------------------------------------------------------------
def test_cache_stats_exact_under_concurrency():
    """Pre-fix, ``hits += 1`` raced under batch threads and drifted from
    the true lookup count; the locked stats make the ledger exact."""
    cache = LRUCache(256)
    for i in range(16):
        cache.put(i, i)
    probes_per_thread = 500
    n_threads = 8
    barrier = threading.Barrier(n_threads)

    def hammer():
        barrier.wait()
        for i in range(probes_per_thread):
            cache.get(i % 32)  # half hit, half miss

    threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    total = n_threads * probes_per_thread
    assert cache.stats.hits + cache.stats.misses == total
    assert cache.stats.requests == total
    expected_hits = n_threads * sum(
        1 for i in range(probes_per_thread) if i % 32 < 16
    )
    assert cache.stats.hits == expected_hits


def test_batch_executor_counts_exact():
    from repro.perf.batch import BatchSearchExecutor

    engine = KeywordSearchEngine(tiny_bibliographic_db())
    executor = BatchSearchExecutor(engine, max_workers=6)
    queries = [PARITY_QUERY, "levy fagin", PARITY_QUERY, "levy fagin"] * 3
    outcomes = executor.run_outcomes(queries, k=3)
    assert len(outcomes) == len(queries)
    stats = executor.stats()
    assert stats["queries_served"] == len(queries)
    # Two distinct queries; every duplicate was deduplicated in-flight,
    # never computed twice.
    assert stats["queries_computed"] == 2
    snap = engine.metrics.snapshot()
    assert snap["batch.queries_served"] == len(queries)
    assert snap["batch.queries_computed"] == 2
    assert snap["batch.duplicates_coalesced"] == len(queries) - 2
    # One latency observation per *computed* query, not per duplicate.
    assert snap["batch.query_ms"]["count"] == 2


# ----------------------------------------------------------------------
# Regression 3: cache hits preserve degradation metadata + trace tag
# ----------------------------------------------------------------------
def test_cache_hit_preserves_degraded_metadata_and_tags_trace():
    """Pre-fix, a ResultSet served from the LRU could drop its
    ``degraded`` markers; the clone must carry them, plus a fresh
    lookup trace tagged ``cache_hit=True`` (never the original
    compute's trace)."""
    engine = KeywordSearchEngine(tiny_bibliographic_db(), trace=True)
    computed = engine.search(PARITY_QUERY, k=3)
    key = engine._query_key(PARITY_QUERY, "schema", 3)
    degraded = ResultSet(
        list(computed),
        method="schema",
        degraded=True,
        degraded_reason="timeout_ms exhausted",
    )
    degraded.trace = computed.trace  # stale compute trace in the cache
    engine._result_cache.put(key, degraded)

    served = engine.search(PARITY_QUERY, k=3)
    assert served.degraded is True
    assert served.degraded_reason == "timeout_ms exhausted"
    # Fresh lookup trace, not the cached computation's span tree.
    assert served.trace is not computed.trace
    lookup = served.trace.find("cache_lookup")
    assert lookup.tags["outcome"] == "hit"
    assert lookup.tags["cache_hit"] is True
    assert served.trace.span_names() == ["search", "cache_lookup"]


def test_clone_never_carries_stored_trace():
    rs = ResultSet(method="schema", degraded=True, degraded_reason="x")
    rs.trace = object()
    clone = rs.clone()
    assert clone.trace is None
    assert clone.degraded and clone.degraded_reason == "x"
