"""Chaos tests: concurrent mutation and injected faults vs. the caches.

These tests deliberately race batch serving against database mutation
(and widen race windows with delay failpoints) to prove the
version-checked caches never serve stale results.  Each test builds its
own database — the shared session fixtures must stay immutable.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.core.factory import build_engine
from repro.datasets.bibliographic import tiny_bibliographic_db
from repro.resilience.failpoints import FAILPOINTS


def result_signature(results):
    return [(r.score, r.network, tuple(r.tuple_ids())) for r in results]


QUERIES = ["john database", "widom xml", "levy logic", "stonebraker"]

#: ``build_engine`` options per engine kind the shared front end serves.
ENGINE_KINDS = {"single": {}, "sharded-2": {"shards": 2}}


class TestMutationDuringBatch:
    def test_inserts_visible_during_concurrent_batches(self):
        """Writers' own inserts are immediately visible while a background
        thread hammers the batch path against the same engine."""
        engine = KeywordSearchEngine(tiny_bibliographic_db())
        stop = threading.Event()
        background_errors = []

        def hammer():
            while not stop.is_set():
                try:
                    engine.search_many(QUERIES, k=5)
                except Exception as exc:  # pragma: no cover - fail loudly
                    background_errors.append(exc)
                    return

        thread = threading.Thread(target=hammer, daemon=True)
        thread.start()
        try:
            for i in range(5):
                name = f"chaosauthor{i} resilience"
                engine.db.insert(
                    "author", aid=1000 + i, name=name, affiliation=None
                )
                found = engine.search(f"chaosauthor{i}", k=5)
                assert found, f"insert {i} not visible to its own writer"
        finally:
            stop.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert not background_errors

        # Steady state: the mutated engine serves exactly what a fresh
        # engine over the same data serves.
        fresh = KeywordSearchEngine(engine.db)
        for query in QUERIES + ["chaosauthor3"]:
            assert result_signature(engine.search(query, k=5)) == result_signature(
                fresh.search(query, k=5)
            )

    def test_delayed_result_put_does_not_pin_stale_entry(self):
        """A search delayed between compute and cache-publish must not
        leave a pre-mutation result pinned in the cache afterwards —
        on either engine kind (they share one ``_serve_cached``)."""
        for kind, options in ENGINE_KINDS.items():
            engine = build_engine(tiny_bibliographic_db(), **options)
            query = "zweig database"
            assert engine.search(query, k=5) == [], kind
            engine._result_cache.clear()

            # Widen the window: the next compute of `query` sleeps before
            # its result is published to the LRU (and, sharded, before
            # the shards evaluate the already-planned query).
            FAILPOINTS.activate(
                "cache.result_put", exc=None, delay=0.15, times=1, key=query
            )
            FAILPOINTS.activate("shard.execute", exc=None, delay=0.15, times=1)
            slow = threading.Thread(target=lambda: engine.search(query, k=5))
            slow.start()
            try:
                time.sleep(0.05)  # the slow search is inside the window
                engine.db.insert(
                    "author", aid=77, name="stefan zweig", affiliation="database lab"
                )
                # Another query refreshes the engine (and drops the LRU)
                # while the stale answer is still waiting to publish.
                engine.search("widom", k=1)
            finally:
                slow.join(timeout=30)
                FAILPOINTS.reset()
            assert not slow.is_alive(), kind
            after = engine.search(query, k=5)
            assert after, f"{kind}: stale empty result served after mutation"
            engine.close()

    def test_delayed_substrate_build_with_concurrent_insert(self):
        """Tuple-set build delayed mid-batch while a row lands: the final
        state must match a fresh engine (no stale substrate survives)."""
        engine = KeywordSearchEngine(tiny_bibliographic_db())
        FAILPOINTS.activate(
            "substrates.tuple_sets", exc=None, delay=0.1, times=1
        )
        batch = threading.Thread(
            target=lambda: engine.search_many(QUERIES, k=5)
        )
        batch.start()
        try:
            engine.db.insert(
                "author", aid=88, name="race condition", affiliation=None
            )
        finally:
            batch.join(timeout=30)
        assert not batch.is_alive()
        assert engine.search("condition", k=5), "insert invisible after batch"
        fresh = KeywordSearchEngine(engine.db)
        for query in QUERIES:
            assert result_signature(engine.search(query, k=5)) == result_signature(
                fresh.search(query, k=5)
            )

    def test_concurrent_batches_with_poisoned_query_and_mutation(self):
        """Fault isolation and invalidation compose: poisoned query plus
        mid-flight insert, and every clean query still serves fresh."""
        engine = KeywordSearchEngine(tiny_bibliographic_db())
        FAILPOINTS.activate(
            "engine.search", exc=RuntimeError("boom"), key="poison pill"
        )
        queries = QUERIES + ["poison pill"]
        outcomes = engine.search_many(queries, k=5, detailed=True)
        engine.db.insert("author", aid=99, name="post insert", affiliation=None)
        outcomes = engine.search_many(queries, k=5, detailed=True)
        by_text = {o.query.text: o for o in outcomes}
        assert by_text["poison pill"].status == "error"
        fresh = KeywordSearchEngine(engine.db)
        for query in QUERIES:
            assert by_text[query].status == "ok"
            assert result_signature(by_text[query].results) == result_signature(
                fresh.search(query, k=5)
            )
