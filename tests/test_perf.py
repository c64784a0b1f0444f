"""Tests for the hot-path serving layer: LRU cache, substrate memos,
cache parity/invalidation, batch execution, and index fast paths."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.analysis.clouds import refine_terms
from repro.core.engine import KeywordSearchEngine
from repro.datasets.bibliographic import tiny_bibliographic_db
from repro.forms.matching import suggest_forms
from repro.index.inverted import InvertedIndex
from repro.perf.batch import BatchQuery, as_batch_query
from repro.perf.lru import LRUCache
from repro.perf.substrates import SubstrateCache, normalize_keywords
from repro.relational.database import TupleId

METHODS = ["schema", "banks", "banks2", "steiner", "distinct_root", "ease"]


def result_signature(results):
    """Comparable identity of a result list: scores, labels, tuples."""
    return [(r.score, r.network, tuple(r.tuple_ids())) for r in results]


@pytest.fixture()
def engine():
    return KeywordSearchEngine(tiny_bibliographic_db())


# ----------------------------------------------------------------------
# LRUCache
# ----------------------------------------------------------------------
class TestLRUCache:
    def test_get_put_roundtrip(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing", "default") == "default"
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_eviction_is_lru_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # promote a; b is now LRU
        cache.put("c", 3)
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.stats.evictions == 1

    def test_capacity_bound(self):
        cache = LRUCache(3)
        for i in range(10):
            cache.put(i, i)
        assert len(cache) == 3
        assert cache.stats.evictions == 7

    def test_get_or_compute(self):
        cache = LRUCache(4)
        calls = []
        value = cache.get_or_compute("k", lambda: calls.append(1) or 42)
        again = cache.get_or_compute("k", lambda: calls.append(1) or 42)
        assert value == again == 42
        assert len(calls) == 1

    def test_clear_counts_invalidation(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.invalidations == 1

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_hit_rate(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        assert cache.stats.hit_rate == pytest.approx(0.5)


# ----------------------------------------------------------------------
# SubstrateCache
# ----------------------------------------------------------------------
class TestSubstrateCache:
    def test_normalize_keywords(self):
        assert normalize_keywords(["XML", "widom", "xml"]) == ("widom", "xml")

    def test_tuple_sets_reused(self, engine):
        ts1 = engine.substrates.tuple_sets(["widom", "xml"])
        ts2 = engine.substrates.tuple_sets(["xml", "WIDOM"])
        assert ts1 is ts2
        assert engine.substrates.builds["tuple_sets"] == 1

    def test_candidate_networks_reused(self, engine):
        cns1 = engine.substrates.candidate_networks(["widom", "xml"], 4)
        cns2 = engine.substrates.candidate_networks(["xml", "widom"], 4)
        assert cns1 is cns2
        # A different size knob is a different substrate.
        cns3 = engine.substrates.candidate_networks(["widom", "xml"], 3)
        assert cns3 is not cns1

    def test_query_memo_is_bounded(self, engine, monkeypatch):
        """Keyword sets come from clients and every insert patches every
        memoised TupleSets: both memos live in one bounded LRU."""
        from repro.perf import substrates as substrates_module

        assert substrates_module.QUERY_MEMO_CAPACITY >= 256
        monkeypatch.setattr(substrates_module, "QUERY_MEMO_CAPACITY", 4)
        small = KeywordSearchEngine(tiny_bibliographic_db())
        cache = small.substrates
        first = result_signature(small.search("widom xml", k=5, use_cache=False))
        first_sets = cache.tuple_sets(["widom", "xml"])
        for i in range(10):
            cache.candidate_networks([f"filler{i}"], 4)
        entries = cache.stats()["entries"]
        assert entries["tuple_sets"] == 4  # capacity holds...
        assert entries["candidate_networks"] == 4  # ...CN lists leave with their set
        assert cache.memo_bytes() > 0
        # The evicted key rebuilds to an identical answer.
        assert cache.tuple_sets(["widom", "xml"]) is not first_sets
        again = result_signature(small.search("widom xml", k=5, use_cache=False))
        assert again == first
        # An insert patches at most `capacity` memoised tuple sets.
        before = cache.patches["tuple_sets_patched"]
        small.db.insert("author", aid=77, name="bounded patch", affiliation=None)
        cache.check_version()
        assert cache.patches["tuple_sets_patched"] - before == 4

    def test_budgeted_hit_is_charged_enumeration_cost(self, engine):
        from repro.resilience.budget import QueryBudget

        cold = QueryBudget()
        cns = engine.substrates.candidate_networks(["widom", "xml"], 4, budget=cold)
        assert cold.cns_enumerated > 0 and not cold.exhausted
        warm = QueryBudget()
        assert engine.substrates.candidate_networks(["widom", "xml"], 4, warm) is cns
        assert warm.cns_enumerated == cold.cns_enumerated
        assert engine.substrates.builds["candidate_networks"] == 1
        # A budget the memoised cost would cross enumerates (and
        # truncates) as if there were no memo, and stores nothing.
        tight = QueryBudget(max_cns=cold.cns_enumerated - 1)
        partial = engine.substrates.candidate_networks(["widom", "xml"], 4, tight)
        assert tight.exhausted and partial is not cns
        assert engine.substrates.candidate_networks(["widom", "xml"], 4) is cns

    def test_keyword_groups_and_miss(self, engine):
        groups = engine.substrates.keyword_groups(["widom", "xml"])
        assert groups is not None and all(groups)
        assert engine.substrates.keyword_groups(["widom", "zzzzz"]) is None
        # Inner lists are defensive copies: mutating one must not leak.
        groups[0].clear()
        again = engine.substrates.keyword_groups(["widom", "xml"])
        assert again is not None and again[0]

    def test_mutation_patches_incrementally(self, engine):
        # Insert-only data model: the default reaction to a mutation is
        # an in-place delta patch, not a drop-everything clear.
        ts1 = engine.substrates.tuple_sets(["widom", "xml"])
        engine.db.insert("author", aid=99, name="fresh widom fan", affiliation=None)
        ts2 = engine.substrates.tuple_sets(["widom", "xml"])
        assert ts2 is ts1  # warm substrate survived the write
        assert engine.substrates.invalidations == 0
        patches = engine.substrates.patches
        assert patches["applied"] == 1
        assert patches["index_rows"] == 1
        # ...and the patched substrate sees the new row.
        new_tid = TupleId("author", len(engine.db.table("author")) - 1)
        assert any(
            new_tid in ts2.tuple_ids(key)
            for key in ts2.keys_for_table("author")
        )

    def test_mutation_invalidates_without_incremental(self, engine, monkeypatch):
        # A delta that cannot be applied falls back to dropping
        # everything — and the rebuilt substrates see the new row.
        ts1 = engine.substrates.tuple_sets(["widom", "xml"])

        def broken_refresh():
            raise RuntimeError("index delta failed")

        monkeypatch.setattr(engine.index, "refresh", broken_refresh)
        engine.db.insert("author", aid=99, name="fresh widom fan", affiliation=None)
        found = engine.search("fresh widom", k=5)
        assert any(r.tuple_ids()[0].table == "author" for r in found)
        ts2 = engine.substrates.tuple_sets(["widom", "xml"])
        assert ts2 is not ts1
        assert engine.substrates.invalidations == 1
        assert engine.substrates.patches["applied"] == 0
        assert not engine.substrates.last_delta_applied


# ----------------------------------------------------------------------
# Engine-level caching
# ----------------------------------------------------------------------
class TestSearchCacheParity:
    @pytest.mark.parametrize("method", METHODS)
    def test_cached_equals_uncached(self, engine, method):
        text = "widom xml"
        uncached = engine.search(text, k=5, method=method, use_cache=False)
        first = engine.search(text, k=5, method=method)
        hit = engine.search(text, k=5, method=method)
        assert result_signature(first) == result_signature(uncached)
        assert result_signature(hit) == result_signature(uncached)

    @pytest.mark.parametrize("method", METHODS)
    def test_caches_disabled_engine_parity(self, method):
        db = tiny_bibliographic_db()
        cached_engine = KeywordSearchEngine(db)
        plain_engine = KeywordSearchEngine(db, enable_caches=False)
        text = "john sigmod"
        a = cached_engine.search(text, k=5, method=method)
        b = plain_engine.search(text, k=5, method=method)
        assert result_signature(a) == result_signature(b)

    def test_cache_hit_counted(self, engine):
        engine.search("widom xml", k=5)
        engine.search("widom xml", k=5)
        stats = engine.cache_stats()["results"]
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_cached_list_is_a_copy(self, engine):
        first = engine.search("widom xml", k=5)
        first.clear()
        again = engine.search("widom xml", k=5)
        assert again  # cache entry not poisoned by caller mutation

    def test_distinct_k_distinct_entries(self, engine):
        engine.search("widom xml", k=1)
        engine.search("widom xml", k=5)
        stats = engine.cache_stats()["results"]
        assert stats["misses"] == 2


class TestInvalidation:
    def test_search_sees_mutation(self, engine):
        before = engine.search("zweig database", k=5)
        assert before == []
        engine.db.insert(
            "author", aid=77, name="stefan zweig", affiliation="database lab"
        )
        after = engine.search("zweig database", k=5)
        assert after, "stale empty result served after mutation"

    def test_refine_terms_sees_mutation(self, engine):
        before = dict(refine_terms(engine, "xml", k=50))
        engine.db.insert("author", aid=78, name="xml xavier", affiliation=None)
        after = dict(refine_terms(engine, "xml", k=50))
        assert "xavier" in after and "xavier" not in before

    def test_version_counter_moves(self):
        db = tiny_bibliographic_db()
        v0 = db.data_version
        db.insert("author", aid=55, name="any body", affiliation=None)
        assert db.data_version == v0 + 1


class TestSuggestFormsReuse:
    def test_suggest_forms_results_stable(self, engine):
        first = suggest_forms(engine, "widom xml")
        second = suggest_forms(engine, "widom xml")
        assert [str(f) for f in first] == [str(f) for f in second]


# ----------------------------------------------------------------------
# Batch execution
# ----------------------------------------------------------------------
class TestBatchSearch:
    def test_as_batch_query_coercions(self):
        assert as_batch_query("a b") == BatchQuery("a b", 10, "schema")
        assert as_batch_query(("a", "banks")) == BatchQuery("a", 10, "banks")
        assert as_batch_query(("a", "banks", 3)) == BatchQuery("a", 3, "banks")

    def test_search_many_matches_sequential(self, engine):
        queries = ["widom xml", "john sigmod", ("widom xml", "banks2"), "cloud data"]
        batched = engine.search_many(queries, k=5)
        assert len(batched) == len(queries)
        expected = [
            engine.search("widom xml", k=5),
            engine.search("john sigmod", k=5),
            engine.search("widom xml", k=5, method="banks2"),
            engine.search("cloud data", k=5),
        ]
        for got, want in zip(batched, expected):
            assert result_signature(got) == result_signature(want)

    def test_duplicates_coalesced(self, engine):
        results = engine.search_many(["widom xml"] * 6, k=5)
        assert len(results) == 6
        snap = engine.metrics.snapshot()
        assert snap["batch.queries_served"] == 6
        assert snap["batch.queries_computed"] == 1
        assert snap["query.count"] == 1  # one search, fanned out six times
        assert len({id(r) for r in results}) == 6  # clones, never aliases
        signatures = {tuple(result_signature(r)) for r in results}
        assert len(signatures) == 1

    def test_empty_batch(self, engine):
        assert engine.search_many([]) == []

    def test_every_query_runs_on_the_callers_thread(self, engine):
        """No pool: each distinct query is one ``search`` on the thread
        that called ``search_many``, in first-seen order."""
        seen = []
        real_search = engine.search

        def spy(text, **kwargs):
            seen.append((text, threading.get_ident()))
            return real_search(text, **kwargs)

        engine.search = spy
        queries = ["widom xml", "john sigmod", "widom xml", ("xml keyword", "banks")]
        results = engine.search_many(queries, k=5)
        assert len(results) == 4 and all(r for r in results)
        caller = threading.get_ident()
        assert seen == [(t, caller) for t in ("widom xml", "john sigmod", "xml keyword")]

    def test_concurrent_stress_parity(self):
        # Many callers batching against one engine must agree with
        # sequential: the server runs each request on a worker thread.
        engine = KeywordSearchEngine(tiny_bibliographic_db())
        queries = [
            "widom xml",
            "john sigmod",
            ("xml keyword", "banks"),
            ("widom xml", "distinct_root"),
            ("john database", "steiner"),
            ("xml data", "ease"),
        ] * 4
        batches = [None] * 4

        def caller(i):
            batches[i] = engine.search_many(queries[i:] + queries[:i], k=5)

        threads = [threading.Thread(target=caller, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        reference = KeywordSearchEngine(tiny_bibliographic_db(), enable_caches=False)
        for i, batched in enumerate(batches):
            for query, got in zip(queries[i:] + queries[:i], batched):
                bq = as_batch_query(query, k=5)
                want = reference.search(bq.text, k=bq.k, method=bq.method)
                assert result_signature(got) == result_signature(want)


# ----------------------------------------------------------------------
# Index fast paths
# ----------------------------------------------------------------------
class TestIndexFastPaths:
    def test_postings_view_is_immutable(self, tiny_index):
        view = tiny_index.postings("xml")
        assert isinstance(view, tuple) and view
        assert tiny_index.postings("nope") == ()

    def test_matching_tuples_copy_is_safe(self, tiny_index):
        first = tiny_index.matching_tuples("xml")
        first.clear()
        assert tiny_index.matching_tuples("xml")

    def test_matching_view_zero_copy(self, tiny_index):
        v1 = tiny_index.matching_tuples_view("xml")
        v2 = tiny_index.matching_tuples_view("XML")
        assert v1 is v2

    def test_df_matches_distinct_tuples(self, tiny_index):
        for token in ("xml", "keyword", "widom", "join"):
            postings_df = len({p.tid for p in tiny_index.postings(token)})
            assert tiny_index.document_frequency(token) == postings_df

    def test_tf_matches_posting_scan(self, tiny_index):
        for token in ("xml", "keyword", "search"):
            for tid in tiny_index.matching_tuples_view(token):
                scanned = sum(
                    p.frequency for p in tiny_index.postings(token) if p.tid == tid
                )
                assert tiny_index.term_frequency(tid, token) == scanned

    def test_unknown_token_statistics(self, tiny_index):
        assert tiny_index.document_frequency("zzzzz") == 0
        assert tiny_index.term_frequency(TupleId("paper", 0), "zzzzz") == 0
        # Smoothed IDF of an unseen token: ln(N+1) + 1.
        import math

        expected = math.log(tiny_index.document_count + 1) + 1.0
        assert tiny_index.idf("zzzzz") == pytest.approx(expected)

    def test_idf_precomputed_consistent(self, tiny_index):
        import math

        n = tiny_index.document_count
        for token in ("xml", "join", "cloud"):
            df = tiny_index.document_frequency(token)
            assert tiny_index.idf(token) == pytest.approx(
                math.log((n + 1) / (df + 1)) + 1.0
            )
