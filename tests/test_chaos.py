"""Chaos tests: concurrent mutation and injected faults vs. the caches.

These tests deliberately race batch serving against database mutation
(and widen race windows with delay failpoints) to prove the
version-checked caches never serve stale results, and inject every
query-path fault once to prove a failed query is reported once and the
same way on ``/search``, ``/batch`` and ``search_many``.  Each test
builds its own database — the shared session fixtures must stay
immutable.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.core.factory import build_engine
from repro.datasets.bibliographic import tiny_bibliographic_db
from repro.obs.metrics import MetricsRegistry
from repro.resilience.failpoints import FAILPOINTS
from repro.serving.admission import AdmissionController
from repro.serving.routes import Request, Router
from repro.serving.swap import EngineHandle


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


# ----------------------------------------------------------------------
# One failure policy: one failure, one verdict on every path
# ----------------------------------------------------------------------
#: Every failpoint on a query's path, with a method whose path crosses
#: it and the key it is armed with.  (``shard.execute`` exists on shards.)
QUERY_PATH_FAULTS = [
    ("engine.search", "schema", None),
    ("engine.method", "schema", None),
    ("engine.method", "banks", None),
    ("engine.index_build", "schema", None),
    ("engine.data_graph_build", "banks", None),
    ("substrates.tuple_sets", "schema", None),
    ("substrates.candidate_networks", "schema", None),
    ("substrates.keyword_groups", "banks", None),
    ("shard.execute", "schema", 0),
]

FAULT_CASES = [
    pytest.param(kind, name, method, key, id=f"{kind}-{name}-{method}")
    for kind in ENGINE_KINDS
    for name, method, key in QUERY_PATH_FAULTS
    if kind != "single" or not name.startswith("shard.")
]

#: The :meth:`ResultSet.to_dict` keys: an answer, without the HTTP envelope.
ANSWER_KEYS = (
    "status", "method", "degraded", "degraded_reason", "fallback_from",
    "error", "count", "results",
)


def _error_fields(error):
    """An ``error`` object's fields: ``(type, message)``."""
    return error["type"], error["message"]


def _verdict(answer):
    """``(status, what went wrong)`` of one answer dict, plus its bytes
    when it is a complete answer.  What went wrong is the error's
    fields, or the degraded reason."""
    status = answer["status"]
    if status == "error":
        return (status, _error_fields(answer["error"])), None
    if status == "degraded":
        return (status, answer["degraded_reason"]), None
    return (status, None), json.dumps({key: answer[key] for key in ANSWER_KEYS})


def _via_search(engine, router, texts, method):
    verdicts = []
    for text in texts:
        response = asyncio.run(
            router.dispatch(Request("GET", "/search", {"q": text, "method": method}))
        )
        if response.status == 500:  # what escaped the engine, reported once
            verdicts.append((("error", _error_fields(response.payload["error"])), None))
        else:
            assert response.status == 200, response.payload
            verdicts.append(_verdict(response.payload))
    return verdicts


def _via_batch(engine, router, texts, method):
    body = {"queries": list(texts), "method": method}
    response = asyncio.run(router.dispatch(Request("POST", "/batch", body=body)))
    assert response.status == 200, response.payload
    return [_verdict(entry) for entry in response.payload["results"]]


def _via_search_many(engine, router, texts, method):
    outcomes = engine.search_many(texts, method=method, detailed=True)
    verdicts = [_verdict(outcome.results.to_dict()) for outcome in outcomes]
    for outcome, ((status, _), _) in zip(outcomes, verdicts):
        assert outcome.status == status
    return verdicts


PATHS = {
    "/search": _via_search,
    "/batch": _via_batch,
    "search_many": _via_search_many,
}


class _Served:
    """A fresh engine of one kind behind a router of its own."""

    def __init__(self, kind):
        self.engine = build_engine(tiny_bibliographic_db(), **ENGINE_KINDS[kind])
        metrics = MetricsRegistry()
        self._executor = ThreadPoolExecutor(max_workers=1)
        self.router = Router(
            handle=EngineHandle(self.engine, metrics=metrics),
            # No latency target: sequential requests are never rewritten.
            admission=AdmissionController(target_latency_ms=0, metrics=metrics),
            executor=self._executor,
            metrics=metrics,
        )

    def ask(self, path, texts, method="schema"):
        return PATHS[path](self.engine, self.router, list(texts), method)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._executor.shutdown(wait=True)
        self.engine.close()


def _unfaulted(kind, texts, method="schema"):
    """What an engine that never saw a fault answers."""
    engine = build_engine(tiny_bibliographic_db(), **ENGINE_KINDS[kind])
    try:
        return [_verdict(engine.search(t, method=method).to_dict()) for t in texts]
    finally:
        engine.close()


class TestOneFailurePolicy:
    @pytest.mark.parametrize("kind,name,method,key", FAULT_CASES)
    def test_one_fault_one_verdict_on_every_path(self, kind, name, method, key):
        """A fault injected once fails (or, on shards, degrades) exactly
        one request, identically on all three paths, and the very next
        request answers as an engine that never saw it."""
        text = "widom xml"
        (expected,) = _unfaulted(kind, [text], method)
        assert expected[0] == ("ok", None) and json.loads(expected[1])["count"]
        verdicts = {}
        for path in PATHS:
            with _Served(kind) as served:
                FAILPOINTS.reset()
                FAILPOINTS.activate(name, times=1, key=key)
                (verdicts[path],) = served.ask(path, [text], method)
                assert FAILPOINTS.hits(name) == 1, path  # no retry
                assert served.ask(path, [text], method) == [expected], path
        assert len(set(verdicts.values())) == 1, verdicts
        (status, detail), answer = verdicts["/search"]
        assert status in ("error", "degraded") and answer is None
        if status == "error":
            assert detail[0] == "FaultInjectedError"
        else:  # only a shard or a routed rung degrades
            assert kind != "single"
            assert detail.startswith(("shard 0: ", "route: "))
            assert "FaultInjectedError" in detail

    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_batch_answers_as_soon_as_a_build_fault_heals(self, kind):
        """Five queries fail on a broken index build, one build attempt
        each; the first batch after the fault clears answers."""
        texts = QUERIES + ["keyword search"]
        expected = _unfaulted(kind, texts)
        with _Served(kind) as served:
            FAILPOINTS.activate("engine.index_build", exc=RuntimeError("disk gone"))
            failed = served.ask("/batch", texts)
            assert [status for (status, _), _ in failed] == ["error"] * len(texts)
            FAILPOINTS.deactivate("engine.index_build")
            assert served.ask("/batch", texts) == expected
            assert served.ask("search_many", texts) == expected
        assert FAILPOINTS.hits("engine.index_build") == len(texts)
        assert all(
            detail[0] == "SubstrateBuildError" and "disk gone" in detail[1]
            for (_, detail), _ in failed
        )

    def test_search_500_is_counted_once_with_the_batch_error_object(self):
        """A query that raised in the engine is a 500 on /search whose
        ``error`` object is the one /batch reports for the same fault
        (unwrapped exceptions classified the same way), counted once in
        ``serve.internal_errors``."""
        with _Served("single") as served:
            FAILPOINTS.activate("engine.index_build", exc=RuntimeError("disk gone"))
            response = asyncio.run(
                served.router.dispatch(Request("GET", "/search", {"q": "widom xml"}))
            )
            batch = asyncio.run(
                served.router.dispatch(
                    Request("POST", "/batch", body={"queries": ["widom xml"]})
                )
            )
            metrics = served.router.metrics.snapshot()
        assert response.status == 500 and response.payload["ok"] is False
        assert response.payload["error"] == batch.payload["results"][0]["error"]
        assert response.payload["error"]["type"] == "SubstrateBuildError"
        assert "disk gone" in response.payload["error"]["message"]
        assert metrics["serve.internal_errors"] == 1

    def test_scattered_merge_is_exact_as_soon_as_a_shard_heals(self):
        """A failing shard degrades every scattered query while it fails
        and none after: no breaker keeps a healed shard out."""
        texts = ["john database", "widom xml", "xml query"]
        expected = _unfaulted("sharded-2", texts)
        assert all(json.loads(answer)["count"] for _, answer in expected)
        with _Served("sharded-2") as served:
            FAILPOINTS.activate("shard.execute", key=1)
            degraded = served.ask("/search", texts)
            reason = "shard 1: FaultInjectedError: fault injected at 'shard.execute'"
            assert degraded == [(("degraded", reason), None)] * len(texts)
            FAILPOINTS.deactivate("shard.execute")
            assert served.ask("/search", texts) == expected
            assert served.ask("search_many", texts) == expected
