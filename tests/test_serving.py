"""Serving front end: admission control, swaps, HTTP, mutation races."""

import asyncio
import http.client
import json
import logging
import os
import re
import socket
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.core.factory import build_engine
from repro.core.results import ResultSet
from repro.datasets.bibliographic import tiny_bibliographic_db
from repro.obs.metrics import MetricsRegistry
from repro.perf.batch import BatchOutcome, BatchQuery
from repro.resilience.budget import QueryBudget
from repro.resilience.errors import BudgetExceededError
from repro.resilience.failpoints import FAILPOINTS
from repro.serving.admission import (
    AdmissionController,
    LatencyEWMA,
    MODE_FALLBACK,
    MODE_FULL,
    MODE_INDEX_ONLY,
    TokenBucket,
)
from repro.serving.routes import Request, Response, Router
from repro.serving.server import ServingServer
from repro.serving.swap import EngineHandle

from .test_obs import parse_exposition, prom_name


class FakeClock:
    def __init__(self, t: float = 1000.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


# ----------------------------------------------------------------------
# Admission primitives
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=clock)
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() == 0.0
        retry = bucket.try_acquire()
        assert retry == pytest.approx(0.1)  # 1 token at 10/s
        clock.advance(0.1)
        assert bucket.try_acquire() == 0.0

    def test_retry_after_accounts_for_partial_tokens(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=1.0, clock=clock)
        assert bucket.try_acquire() == 0.0
        clock.advance(0.25)  # 0.5 tokens back
        assert bucket.try_acquire() == pytest.approx(0.25)

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=3.0, clock=clock)
        clock.advance(60.0)
        assert bucket.available() == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.5)


class TestLatencyEWMA:
    def test_first_observation_seeds(self):
        ewma = LatencyEWMA(alpha=0.2)
        ewma.observe(100.0)
        assert ewma.value == 100.0

    def test_moves_toward_observations(self):
        ewma = LatencyEWMA(alpha=0.5)
        ewma.observe(100.0)
        ewma.observe(200.0)
        assert ewma.value == pytest.approx(150.0)
        assert ewma.count == 2

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            LatencyEWMA(alpha=0.0)

    def test_idle_time_halves_the_value(self):
        clock = FakeClock()
        ewma = LatencyEWMA(alpha=0.5, half_life_s=2.0, clock=clock)
        ewma.observe(800.0)
        clock.advance(1.9)
        assert ewma.value == 800.0  # busy servers see the plain EWMA
        clock.advance(2.2)  # 4.1 s idle = two full half-lives
        assert ewma.value == 200.0
        ewma.observe(400.0)  # folds into the decayed value
        assert ewma.value == pytest.approx(300.0)
        assert LatencyEWMA().half_life_s is None  # no decay unless asked


class TestAdmissionLadder:
    def make(self, **kw):
        kw.setdefault("max_concurrency", 4)
        kw.setdefault("max_queue_depth", 6)  # capacity 10
        kw.setdefault("tenant_rate", 1000.0)
        kw.setdefault("tenant_burst", 1000.0)
        kw.setdefault("metrics", MetricsRegistry())
        return AdmissionController(**kw)

    def _set_depth(self, ctl: AdmissionController, depth: int) -> None:
        for _ in range(depth):
            ctl.enqueued()

    def test_idle_is_full_mode(self):
        decision = self.make().admit()
        assert decision.admitted and decision.mode == MODE_FULL

    def test_ladder_descends_with_queue_depth(self):
        ctl = self.make()  # thresholds 0.5 / 0.8, capacity 10
        self._set_depth(ctl, 5)  # pressure 0.5
        assert ctl.admit().mode == MODE_FALLBACK
        ctl.enqueued()
        ctl.enqueued()
        ctl.enqueued()  # pressure 0.8
        assert ctl.admit().mode == MODE_INDEX_ONLY

    def test_full_queue_sheds(self):
        ctl = self.make()
        self._set_depth(ctl, 10)
        decision = ctl.admit()
        assert not decision.admitted
        assert decision.retry_after_s > 0.0
        assert "queue full" in decision.reason

    def test_latency_pressure_sheds_with_queue_space(self):
        ctl = self.make(target_latency_ms=100.0)
        ctl.enqueued()
        ctl.started()
        ctl.finished(500.0)  # EWMA 500ms -> ratio 2.5
        decision = ctl.admit()
        assert not decision.admitted
        assert "overload" in decision.reason

    def test_latency_shedding_unlatches_after_idle(self):
        """Shipped defaults, one 513 ms query: every later request was
        shed, shed requests never call ``finished()``, so the EWMA never
        fell — 30/30 requests 429 after 3 s idle."""
        clock = FakeClock()
        ctl = AdmissionController(clock=clock, metrics=MetricsRegistry())
        ctl.enqueued()
        ctl.started()
        ctl.finished(513.0)  # > 2 x target_latency_ms (250)
        for _ in range(3):
            assert not ctl.admit().admitted  # latched
        clock.advance(3.0)
        decision = ctl.admit()
        assert decision.admitted and decision.mode == MODE_FULL

    def test_per_tenant_rate_limit(self):
        clock = FakeClock()
        ctl = self.make(tenant_rate=1.0, tenant_burst=1.0, clock=clock)
        assert ctl.admit("a").admitted
        shed = ctl.admit("a")
        assert not shed.admitted and shed.retry_after_s == pytest.approx(1.0)
        assert ctl.admit("b").admitted  # buckets are per tenant

    def test_lifecycle_counters(self):
        ctl = self.make()
        ctl.enqueued()
        ctl.started()
        assert (ctl.queued, ctl.inflight) == (0, 1)
        ctl.finished(12.0)
        assert ctl.inflight == 0
        assert ctl.latency.value == 12.0
        stats = ctl.stats()
        assert stats["capacity"] == 10 and stats["tenants"] == 0

    def test_admit_failpoint(self):
        ctl = self.make()
        FAILPOINTS.activate("serve.admit", exc=RuntimeError("boom"), key="t1")
        assert ctl.admit("other").admitted
        with pytest.raises(RuntimeError):
            ctl.admit("t1")

    def test_server_side_shed_does_not_charge_tenant(self):
        clock = FakeClock()
        ctl = self.make(tenant_rate=1.0, tenant_burst=1.0, clock=clock)
        self._set_depth(ctl, 10)  # queue full
        shed = ctl.admit("a")
        assert not shed.admitted and "queue full" in shed.reason
        for _ in range(10):
            ctl.abandoned()  # queue drains
        # The queue-full shed never debited the tenant's bucket: the
        # single token is still there.
        assert ctl.admit("a").admitted

    def test_tenant_map_is_bounded(self):
        clock = FakeClock()
        ctl = self.make(
            max_tenants=2, tenant_rate=1.0, tenant_burst=1.0, clock=clock
        )
        assert ctl.admit("a").admitted
        assert ctl.admit("b").admitted
        assert ctl.stats()["tenants"] == 2
        # Both buckets are freshly drained (not evictable): tenant "c"
        # shares the overflow bucket instead of growing the map.
        assert ctl.admit("c").admitted
        assert ctl.stats()["tenants"] == 2
        shed = ctl.admit("d")  # overflow bucket is empty now too
        assert not shed.admitted and "rate limit" in shed.reason
        assert ctl.stats()["tenants"] == 2
        # Once idle buckets refill to burst they are evictable: a new
        # tenant gets a real bucket and the map stays at the cap.
        clock.advance(60.0)
        assert ctl.admit("e").admitted
        assert ctl.stats()["tenants"] == 2

    def test_max_tenants_validation(self):
        with pytest.raises(ValueError):
            self.make(max_tenants=0)


# ----------------------------------------------------------------------
# Generations
# ----------------------------------------------------------------------
class TestEngineHandle:
    def test_swap_increments_generation_and_tears_down(self):
        torn = []
        handle = EngineHandle("old", teardown=torn.append)
        result = handle.swap("new")
        assert handle.generation == 2 and handle.engine == "new"
        assert result.drained and result.previous_generation == 1
        assert torn == ["old"]

    def test_default_teardown_closes_what_the_engine_owns(self):
        """Swapping away from a ``backend="disk"`` generation leaves no
        ephemeral segment file or open mmap behind, single or sharded."""
        for options in ({}, {"shards": 2}):
            old = build_engine(tiny_bibliographic_db(), backend="disk", **options)
            assert old.search("widom xml", k=3)
            backend = old.index.backend
            assert "repro-seg-" in backend.path and os.path.exists(backend.path)
            handle = EngineHandle(old)
            new = build_engine(old.db, **options)
            assert handle.swap(new).drained
            assert not os.path.exists(backend.path), options
            assert backend._mm is None, options
            new.close()

    def test_pinned_reader_keeps_old_generation(self):
        handle = EngineHandle("old", teardown=lambda e: None)
        release = threading.Event()
        seen = {}

        def reader():
            with handle.acquire() as (engine, gen):
                seen["engine"], seen["gen"] = engine, gen
                release.wait(5.0)

        t = threading.Thread(target=reader)
        t.start()
        while "engine" not in seen:
            time.sleep(0.001)
        done = {}

        def swapper():
            done["result"] = handle.swap("new", drain_timeout_s=5.0)

        s = threading.Thread(target=swapper)
        s.start()
        time.sleep(0.05)
        # The flip is immediate; the drain is still waiting on the reader.
        assert handle.generation == 2
        assert s.is_alive()
        release.set()
        s.join(5.0)
        t.join(5.0)
        assert done["result"].drained
        assert (seen["engine"], seen["gen"]) == ("old", 1)

    def test_drain_timeout_leaks_instead_of_tearing(self):
        torn = []
        handle = EngineHandle("old", teardown=torn.append)
        gen = handle._current
        gen.pin()  # a reader that never finishes
        result = handle.swap("new", drain_timeout_s=0.05)
        assert not result.drained and result.old_readers_left == 1
        assert torn == []  # never tear down under a live reader
        gen.unpin()

    def test_swap_failpoint_aborts_before_flip(self):
        handle = EngineHandle("old")
        FAILPOINTS.activate("serve.swap", exc=RuntimeError("chaos"), times=1)
        with pytest.raises(RuntimeError):
            handle.swap("new")
        assert handle.generation == 1 and not handle.swapping

    def test_flip_returns_immediately_drain_blocks(self):
        """flip() never waits on readers; only drain() does.

        This split lets the router hold its mutation lock across the
        (fast) flip and run the (possibly slow) drain after releasing
        it, so a pinned long-running query can't stall inserts.
        """
        torn = []
        handle = EngineHandle("old", teardown=torn.append)
        gen = handle._current
        gen.pin()  # a reader on the old generation
        old = handle.flip("new")
        assert handle.generation == 2 and handle.engine == "new"
        assert handle.swapping  # stays true until the drain finishes
        assert torn == []
        done = {}

        def drainer():
            done["result"] = handle.drain(old, drain_timeout_s=5.0)

        t = threading.Thread(target=drainer)
        t.start()
        time.sleep(0.05)
        assert t.is_alive()  # blocked on the pinned reader
        gen.unpin()
        t.join(5.0)
        assert done["result"].drained
        assert done["result"].generation == 2
        assert torn == ["old"]
        assert not handle.swapping


# ----------------------------------------------------------------------
# ResultSet JSON round trip
# ----------------------------------------------------------------------
class TestResultSetRoundTrip:
    def test_exact_round_trip_with_db(self):
        db = tiny_bibliographic_db()
        engine = KeywordSearchEngine(db)
        results = engine.search("keyword search", k=3)
        assert results, "fixture query must match"
        wire = json.loads(json.dumps(results.to_dict()))
        back = ResultSet.from_dict(wire, db=db)
        assert [r.score for r in back] == [r.score for r in results]
        assert [r.network for r in back] == [r.network for r in results]
        assert [r.tuple_ids() for r in back] == [r.tuple_ids() for r in results]
        assert back.method == results.method
        assert back.status == results.status

    def test_degradation_metadata_survives(self):
        rs = ResultSet(
            [],
            method="index_only",
            degraded=True,
            degraded_reason="budget exhausted",
            fallback_from="steiner",
        )
        back = ResultSet.from_dict(json.loads(json.dumps(rs.to_dict())))
        assert back.degraded is True
        assert back.degraded_reason == "budget exhausted"
        assert back.fallback_from == "steiner"
        assert back.status == "degraded"

    def test_error_round_trip(self):
        rs = ResultSet([], method="banks", error=BudgetExceededError("out of gas"))
        back = ResultSet.from_dict(rs.to_dict())
        assert isinstance(back.error, BudgetExceededError)
        assert "out of gas" in str(back.error)
        assert back.status == "error"

    def test_without_db_results_stay_dicts(self):
        db = tiny_bibliographic_db()
        results = KeywordSearchEngine(db).search("keyword search", k=2)
        back = ResultSet.from_dict(results.to_dict())
        assert back and isinstance(back[0], dict)
        assert back[0]["score"] == results[0].score


# ----------------------------------------------------------------------
# Budget poisoning + breaker gauges
# ----------------------------------------------------------------------
class TestBudgetPoison:
    def test_poison_exhausts_at_next_tick(self):
        budget = QueryBudget(timeout_ms=60_000)
        budget.tick_nodes()
        budget.poison("client disconnected")
        assert budget.poisoned and budget.exhausted
        with pytest.raises(BudgetExceededError):
            budget.tick_nodes(1000)

    def test_renew_does_not_resurrect_poisoned(self):
        budget = QueryBudget(timeout_ms=60_000)
        budget.poison()
        budget.renew()
        assert budget.poisoned and budget.exhausted
        assert budget.snapshot()["poisoned"] is True

    def test_renew_still_clears_ordinary_exhaustion(self):
        budget = QueryBudget(max_nodes=1)
        with pytest.raises(BudgetExceededError):
            budget.tick_nodes(5)
        budget.renew()
        assert not budget.exhausted and not budget.poisoned

    def test_fork_shares_deadline_and_poison_not_counters(self):
        clock = FakeClock()
        parent = QueryBudget(timeout_ms=100.0, max_candidates=2, clock=clock)
        early = parent.fork()
        # Independent counters under the caller's caps.
        parent.tick_candidates(2)
        early.tick_candidates(2)
        with pytest.raises(BudgetExceededError):
            early.tick_candidates()
        assert early.exhausted and not parent.exhausted
        # One absolute deadline, however late the fork is made.
        clock.advance(0.09)
        late = parent.fork()
        assert late.remaining_ms() == pytest.approx(parent.remaining_ms())
        clock.advance(0.02)
        with pytest.raises(BudgetExceededError):
            late.checkpoint()
        assert "deadline" in late.reason
        # Poison reaches forks made before and after the call...
        parent = QueryBudget(timeout_ms=60_000)
        before = parent.fork()
        parent.poison("client disconnected")
        after = parent.fork()
        for fork in (before, after):
            assert fork.poisoned and fork.reason == "client disconnected"
            with pytest.raises(BudgetExceededError):
                fork.tick_nodes()
        # ...and a renewed parent does not un-poison them.
        parent.renew()
        assert before.poisoned and after.poisoned and before.exhausted


# ----------------------------------------------------------------------
# Router unit tests (no HTTP)
# ----------------------------------------------------------------------
class SpyEngine:
    """Records search / search_many kwargs; returns canned results.

    It caches nothing, so every query request takes the worker path."""

    def __init__(self):
        self.calls = []
        self.db = None

    def cached_answer(self, text, k, method, budget):
        return None

    def search(self, text, k=10, method="schema", budget=None, fallback=False):
        self.calls.append(
            {"text": text, "k": k, "method": method, "budget": budget,
             "fallback": fallback}
        )
        return ResultSet([], method=method)

    def search_many(self, queries, detailed, **kwargs):
        assert detailed
        self.calls.append({"text": list(queries), **kwargs})
        return [
            BatchOutcome(BatchQuery(text), "ok", ResultSet([], method=kwargs["method"]))
            for text in queries
        ]


def _search_request(**params):
    return Request("GET", "/search", {"q": "hi", **params})


def _batch_request(**params):
    return Request("POST", "/batch", body={"queries": ["hi", "ho"], **params})


#: /search and /batch share one admitted-request path: what holds for
#: admission, queueing, modes and cancellation holds for both.
QUERY_ROUTES = (_search_request, _batch_request)


def _assert_idle(router):
    snap = router.metrics.snapshot()
    assert (snap["serve.queue_depth"], snap["serve.inflight"]) == (0, 0)


@pytest.fixture()
def router_env():
    engine = SpyEngine()
    metrics = MetricsRegistry()
    admission = AdmissionController(
        max_concurrency=2, max_queue_depth=2, metrics=metrics
    )
    executor = ThreadPoolExecutor(max_workers=2)
    router = Router(
        handle=EngineHandle(engine, metrics=metrics),
        admission=admission,
        executor=executor,
        metrics=metrics,
    )
    yield engine, admission, router
    executor.shutdown(wait=False)


def _dispatch(router, request):
    return asyncio.run(router.dispatch(request))


class TestRouterUnit:
    def test_unknown_route_404(self, router_env):
        _, _, router = router_env
        assert _dispatch(router, Request("GET", "/nope")).status == 404

    def test_wrong_method_405(self, router_env):
        _, _, router = router_env
        assert _dispatch(router, Request("GET", "/batch")).status == 405
        assert _dispatch(router, Request("PUT", "/search")).status == 405

    def test_missing_query_400(self, router_env):
        _, _, router = router_env
        response = _dispatch(router, Request("GET", "/search"))
        assert response.status == 400 and "q" in response.payload["error"]

    def test_bad_k_and_method_400(self, router_env):
        _, _, router = router_env
        assert _dispatch(
            router, Request("GET", "/search", {"q": "x", "k": "zero"})
        ).status == 400
        assert _dispatch(
            router, Request("GET", "/search", {"q": "x", "method": "quantum"})
        ).status == 400

    def test_unknown_expansion_400_names_the_choices(self, router_env):
        """``kpp`` needed a model nothing could attach, so it is no
        longer an expansion: a 400 naming the two there are."""
        engine, _, router = router_env
        for knob in ("kpp", "spelling,kpp", "bogus"):
            response = _dispatch(
                router, Request("GET", "/search", {"q": "x", "expand": knob})
            )
            assert response.status == 400, knob
            assert response.payload["error"].endswith(
                "(choices: spelling, synonyms)"
            ), knob
        assert engine.calls == []

    def test_bad_k_gets_the_engines_message(self, router_env):
        """``k`` is checked by the front end's ``validate_k`` on both
        query routes; only the ``hi=1000`` cap is the router's own."""
        engine, _, router = router_env
        for make in QUERY_ROUTES:
            for bad in ("0", "-1", "2.5", "True", 0, -1, 2.5, True):
                response = _dispatch(router, make(k=bad))
                assert response.status == 400, bad
                assert response.payload["error"].startswith(
                    "k must be a positive integer, got "
                ), bad
            response = _dispatch(router, make(k=1001))
            assert response.status == 400
            assert "[1, 1000]" in response.payload["error"]
        assert engine.calls == []

    def test_search_passes_budget(self, router_env):
        engine, _, router = router_env
        response = _dispatch(
            router, Request("GET", "/search", {"q": "hello", "k": "3"})
        )
        assert response.status == 200
        call = engine.calls[-1]
        assert call["k"] == 3 and call["budget"] is not None
        assert response.payload["admission"]["mode"] == MODE_FULL
        assert response.payload["generation"] == 1

    def test_fallback_mode_forces_fallback(self, router_env):
        engine, admission, router = router_env
        admission.enqueued()
        admission.enqueued()  # capacity 4 -> pressure 0.5
        for make_request in QUERY_ROUTES:
            response = _dispatch(router, make_request())
            assert response.payload["admission"]["mode"] == MODE_FALLBACK
            assert engine.calls[-1]["fallback"] is True
        admission.abandoned()
        admission.abandoned()
        _assert_idle(router)

    def test_index_only_mode_pins_method(self, router_env):
        engine, admission, router = router_env
        for make_request in QUERY_ROUTES:
            # Latency signal: EWMA at 1.8x target -> pressure 0.9.
            admission.latency = LatencyEWMA()
            admission.latency.observe(admission.target_latency_ms * 1.8)
            response = _dispatch(router, make_request(method="steiner", fallback=1))
            assert response.payload["admission"]["mode"] == MODE_INDEX_ONLY
            assert engine.calls[-1]["method"] == "index_only"
            assert engine.calls[-1]["fallback"] is False
        _assert_idle(router)

    def test_shed_returns_429_with_retry_after(self, router_env):
        engine, admission, router = router_env
        for _ in range(4):
            admission.enqueued()
        for make_request in QUERY_ROUTES:
            response = _dispatch(router, make_request())
            assert response.status == 429
            assert response.headers["Retry-After"]
            assert response.payload["retry_after_s"] > 0
        assert engine.calls == []
        assert router.metrics.snapshot()["serve.queue_depth"] == 4  # ours only

    @pytest.mark.parametrize("make_request", QUERY_ROUTES)
    def test_queue_timeout_sheds_late_with_429(self, router_env, make_request):
        """A request that waits out its whole ``timeout_ms`` for a worker
        slot is shed (429 + Retry-After), never run, and leaves the
        queue-depth gauge where it found it."""
        engine, _, router = router_env

        async def scenario():
            for _ in range(2):  # max_concurrency: both slots held
                await router.slots.acquire()
            try:
                return await router.dispatch(make_request(timeout_ms=30))
            finally:
                router.slots.release()
                router.slots.release()

        response = asyncio.run(scenario())
        assert response.status == 429 and response.headers["Retry-After"]
        assert engine.calls == []
        assert router.metrics.snapshot()["serve.shed.queue_timeout"] == 1
        _assert_idle(router)

    def test_request_id_is_echoed_or_minted(self, router_env):
        engine, admission, router = router_env
        for make_request in QUERY_ROUTES:
            request = make_request()
            request.headers["x-request-id"] = "client.id-7_A"
            assert _dispatch(router, request).headers["X-Request-Id"] == "client.id-7_A"
            minted = set()
            for bad in ("", "has space", "semi;colon", "x" * 65, None):
                request = make_request()
                if bad is not None:
                    request.headers["x-request-id"] = bad
                response = _dispatch(router, request)
                assert response.status == 200
                minted.add(response.headers["X-Request-Id"])
            assert len(minted) == 5 and all(re.fullmatch(r"[0-9a-f]{32}", m) for m in minted)
        # Bad and client-gone requests carry one too; other routes do not.
        gone = _search_request()
        gone.cancel()
        response = _dispatch(router, gone)
        assert response.status == 499 and "X-Request-Id" in response.headers
        assert "X-Request-Id" in _dispatch(router, Request("GET", "/search")).headers
        assert "X-Request-Id" not in _dispatch(router, Request("GET", "/health")).headers
        for _ in range(4):
            admission.enqueued()
        for make_request in QUERY_ROUTES:
            request = make_request()
            request.headers["x-request-id"] = "shed-1"
            response = _dispatch(router, request)
            assert response.status == 429 and response.headers["X-Request-Id"] == "shed-1"

    def test_queue_wait_and_execution_are_split_per_route(self, router_env):
        """Each query route observes its own wait for a worker slot and
        its own run on the worker; a held slot shows up as queue wait."""
        _, _, router = router_env
        for make_request in QUERY_ROUTES:
            assert _dispatch(router, make_request()).status == 200
        snap = router.metrics.snapshot()
        for route in ("search", "batch"):
            assert snap[f"serve.queue_wait_ms.{route}"]["count"] == 1
            assert snap[f"serve.exec_ms.{route}"]["count"] == 1
        assert snap["serve.request_ms"]["count"] == 2

        hold_s = 0.1

        async def scenario():
            for _ in range(2):  # max_concurrency: both slots held
                await router.slots.acquire()
            task = asyncio.ensure_future(router.dispatch(_search_request()))
            await asyncio.sleep(hold_s)
            router.slots.release()
            try:
                return await task
            finally:
                router.slots.release()

        assert asyncio.run(scenario()).status == 200
        waited = router.metrics.snapshot()["serve.queue_wait_ms.search"]
        assert waited["count"] == 2
        assert waited["max"] >= hold_s * 1000.0
        _assert_idle(router)

    def test_batch_runs_under_the_remaining_deadline(self, router_env):
        """Time spent queued comes off the batch's one deadline: its
        queries fork the request budget, not a fresh ``timeout_ms``."""
        engine, _, router = router_env

        async def scenario():
            for _ in range(2):
                await router.slots.acquire()
            task = asyncio.ensure_future(
                router.dispatch(_batch_request(timeout_ms=400))
            )
            await asyncio.sleep(0.25)
            router.slots.release()
            try:
                return await task
            finally:
                router.slots.release()

        response = asyncio.run(scenario())
        assert response.status == 200 and response.payload["count"] == 2
        (call,) = engine.calls
        assert "timeout_ms" not in call  # no second, fresh deadline
        assert call["budget"].timeout_ms <= 160.0
        _assert_idle(router)

    def test_both_routes_take_the_same_query_args(self, router_env):
        engine, _, router = router_env
        for make_request in QUERY_ROUTES:
            response = _dispatch(
                router,
                make_request(k=3, method="banks", max_expansions=7, fallback="yes"),
            )
            assert response.status == 200
            call = engine.calls[-1]
            assert (call["k"], call["method"], call["fallback"]) == (3, "banks", True)
            budget = call["budget"]
            assert (budget.max_nodes, budget.max_cns, budget.max_candidates) == (7, 7, 7)
            assert budget.timeout_ms <= 2000.0
            for bad in ({"method": "quantum"}, {"k": "zero"}, {"max_expansions": 0}):
                refused = _dispatch(router, make_request(**bad))
                assert refused.status == 400
            assert "choices: schema, banks" in _dispatch(
                router, make_request(method="quantum")
            ).payload["error"]
        _assert_idle(router)

    def test_disconnected_request_is_499(self, router_env):
        engine, _, router = router_env
        request = Request("GET", "/search", {"q": "hi"})
        request.cancel()
        response = _dispatch(router, request)
        assert response.status == 499
        assert engine.calls == []  # never reached the engine

        # The same router over a sharded engine, the client hanging up
        # while the query is on a worker: the request's budget reaches
        # the coordinator, its forks stop every shard at the first
        # tick, and the answer nobody will read is a 499.
        sharded = build_engine(tiny_bibliographic_db(), shards=2)
        router.handle = EngineHandle(sharded, metrics=router.metrics)
        request = Request("GET", "/search", {"q": "sleepy database"})
        FAILPOINTS.activate(
            "engine.search", exc=None, delay=0.2, key="sleepy database"
        )
        threading.Timer(0.05, request.cancel).start()
        try:
            response = _dispatch(router, request)
        finally:
            sharded.close()
        assert response.status == 499
        snap = sharded.metrics.snapshot()
        assert snap["shard_query.degraded"] == snap["shard_query.count"] == 1
        assert snap.get("shard.evaluated", 0) == 0
        assert router.metrics.snapshot()["serve.cancelled"] == 1

    def test_disconnected_batch_is_499(self, router_env):
        engine, _, router = router_env
        request = Request("POST", "/batch", body={"queries": ["hi", "ho"]})
        request.cancel()
        response = _dispatch(router, request)
        assert response.status == 499
        assert engine.calls == []  # never reached the engine
        _assert_idle(router)

    def test_disconnect_mid_batch_stops_the_work(self, router_env):
        """The request budget reaches every query of the batch: a client
        hanging up poisons the forks in flight, and queries not yet
        started never build a substrate."""
        _, _, router = router_env
        engine = KeywordSearchEngine(tiny_bibliographic_db())
        engine.warm()
        router.handle = EngineHandle(engine, metrics=router.metrics)
        words = ("widom", "xml", "john", "query", "keyword", "search", "sigmod")
        queries = [f"{a} {b}" for i, a in enumerate(words) for b in words[i + 1:]]
        queries = queries[:16]  # 16 distinct keyword sets, 8 batch workers
        delay_s = 0.05  # slept under the substrate lock: builds serialise
        FAILPOINTS.activate("substrates.tuple_sets", exc=None, delay=delay_s)
        request = Request(
            "POST", "/batch", body={"queries": queries, "timeout_ms": 20_000}
        )

        def hang_up_once_running():
            deadline = time.time() + 5.0
            while not FAILPOINTS.hits("substrates.tuple_sets"):
                assert time.time() < deadline
                time.sleep(0.001)
            request.cancel()

        canceller = threading.Thread(target=hang_up_once_running)
        canceller.start()
        start_s = time.perf_counter()
        response = _dispatch(router, request)
        elapsed_s = time.perf_counter() - start_s
        canceller.join(5.0)
        assert not canceller.is_alive()
        assert response.status == 499
        assert router.metrics.snapshot()["serve.cancelled"] == 1
        # Only queries already inside a build when the cancel landed got
        # there; uncancelled, all 16 would have, one delay each.
        assert 1 <= FAILPOINTS.hits("substrates.tuple_sets") <= 8
        assert elapsed_s < len(queries) * delay_s
        snap = engine.metrics.snapshot()
        assert snap["budget.exhausted"] >= 8
        assert snap["query.degraded"] == snap["query.count"] == len(queries)
        _assert_idle(router)

    def test_batch_honours_max_expansions_and_fallback(self, router_env):
        _, _, router = router_env
        engine = KeywordSearchEngine(tiny_bibliographic_db())
        router.handle = EngineHandle(engine, metrics=router.metrics)
        body = {"queries": ["john databases", "widom xml"], "method": "steiner",
                "max_expansions": 1}
        capped = _dispatch(router, Request("POST", "/batch", body=body))
        assert [e["status"] for e in capped.payload["results"]] == ["degraded"] * 2
        assert all("budget exhausted (1)" in e["degraded_reason"]
                   for e in capped.payload["results"])
        assert all(e["method"] == "steiner" for e in capped.payload["results"])
        laddered = _dispatch(
            router, Request("POST", "/batch", body={**body, "fallback": True})
        )
        assert all(e["fallback_from"] == "steiner" for e in laddered.payload["results"])
        single = _dispatch(
            router,
            Request("GET", "/search", {"q": "john databases", "method": "steiner",
                                       "max_expansions": "1", "fallback": "1"}),
        )
        entry = laddered.payload["results"][0]
        assert {key: single.payload[key] for key in entry if key != "status"} == {
            key: entry[key] for key in entry if key != "status"
        }

    def test_batch_past_the_tenant_burst_is_400_not_429(self, router_env):
        """A batch costs one token per query and a bucket never holds
        more than the burst, so a longer batch would be shed on every
        retry: it is a 400 naming the cap, refused before admission."""
        engine, admission, router = router_env
        burst = int(admission.tenant_burst)
        over = _dispatch(
            router, Request("POST", "/batch", body={"queries": ["hi"] * (burst + 1)})
        )
        assert over.status == 400 and "X-Request-Id" in over.headers
        assert f"at most {burst} queries" in over.payload["error"]
        assert router.metrics.snapshot().get("serve.shed.rate_limited", 0) == 0
        assert engine.calls == []
        at = _dispatch(router, Request("POST", "/batch", body={"queries": ["hi"] * burst}))
        assert at.status == 200 and at.payload["count"] == burst
        _assert_idle(router)

    def test_request_id_reaches_the_engine_spans(self, router_env):
        """The echoed id rides the request's budget into the engine:
        every query of a batch, and a sharded query, tags its root span."""
        _, _, router = router_env
        single = KeywordSearchEngine(tiny_bibliographic_db())
        sharded = build_engine(tiny_bibliographic_db(), shards=2)
        batch = {"queries": ["widom xml", "john database", "widom xml"]}
        cases = (
            (single, Request("POST", "/batch", body=batch), 2),
            (sharded, Request("GET", "/search", {"q": "widom xml"}), 1),
        )
        try:
            for engine, request, searches in cases:
                router.handle = EngineHandle(engine, metrics=router.metrics)
                request.headers["x-request-id"] = "abc"
                with engine.profiled() as prof:
                    response = _dispatch(router, request)
                assert response.status == 200
                assert response.headers["X-Request-Id"] == "abc"
                assert len(prof) == searches
                assert [t.root.name for t in prof.traces] == ["search"] * searches
                assert [t.root.tags["request_id"] for t in prof.traces] == ["abc"] * searches
            # A minted id reaches the spans the same way.
            router.handle = EngineHandle(single, metrics=router.metrics)
            with single.profiled() as prof:
                response = _dispatch(router, Request("POST", "/batch", body=batch))
            minted = response.headers["X-Request-Id"]
            assert [t.root.tags["request_id"] for t in prof.traces] == [minted] * 2
        finally:
            sharded.close()
        # A library call carries no id: its root span has no such tag.
        assert "request_id" not in single.search("widom xml", trace=True).trace.root.tags


def test_prometheus_counters_equal_the_json_ones():
    """One registry, two renderings: every JSON counter is a Prometheus
    counter family with the same value, and every number in the JSON
    has a family."""
    metrics = MetricsRegistry()
    engine = build_engine(tiny_bibliographic_db(), metrics=metrics)
    with ThreadPoolExecutor(max_workers=1) as executor:
        router = Router(
            handle=EngineHandle(engine, metrics=metrics),
            admission=AdmissionController(metrics=metrics),
            executor=executor,
            metrics=metrics,
        )
        for text in ("widom xml", "john database", "widom xml"):
            assert _dispatch(router, Request("GET", "/search", {"q": text})).status == 200
        as_json = _dispatch(router, Request("GET", "/metrics"))
        as_text = _dispatch(router, Request("GET", "/metrics", {"format": "prometheus"}))
    assert as_text.content_type.startswith("text/plain; version=0.0.4")
    families = parse_exposition(as_text.body.decode("utf-8"))
    snapshot = as_json.payload["metrics"]
    numbers = {n for n, v in snapshot.items() if isinstance(v, (int, float))}
    assert {prom_name(n) for n in numbers} <= set(families)
    counters = {f: samples[f] for f, (kind, samples) in families.items() if kind == "counter"}
    assert counters["repro_query_count"] == 3
    for name in numbers:
        if prom_name(name) in counters:
            assert counters[prom_name(name)] == snapshot[name], name


# ----------------------------------------------------------------------
# End-to-end over HTTP
# ----------------------------------------------------------------------
def _http(base, path, method="GET", body=None, timeout=10, headers=None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(
        base + path,
        method=method,
        data=data,
        headers={
            **({"Content-Type": "application/json"} if data else {}),
            **(headers or {}),
        },
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


@pytest.fixture(scope="module")
def http_server():
    db = tiny_bibliographic_db()
    engine = KeywordSearchEngine(db)
    server = ServingServer(
        engine,
        port=0,
        max_concurrency=4,
        max_queue_depth=8,
        engine_builder=lambda live_db: KeywordSearchEngine(live_db),
    )
    server.start_in_thread()
    yield server
    server.stop()


class TestHttpEndToEnd:
    def test_health_and_ready(self, http_server):
        status, payload, _ = _http(http_server.address, "/health")
        assert status == 200 and payload["status"] == "alive"
        status, payload, _ = _http(http_server.address, "/ready")
        assert status == 200 and payload["status"] == "ready"

    def test_search_returns_scored_results(self, http_server):
        status, payload, _ = _http(
            http_server.address, "/search?q=keyword+search&k=3"
        )
        assert status == 200 and payload["ok"]
        assert payload["count"] >= 1
        assert payload["results"][0]["score"] > 0
        assert payload["admission"]["mode"] == MODE_FULL

    def test_post_search_and_batch(self, http_server):
        status, payload, _ = _http(
            http_server.address, "/search", "POST",
            {"q": "databases", "k": 2, "method": "schema"},
        )
        assert status == 200 and payload["ok"]
        status, payload, _ = _http(
            http_server.address, "/batch", "POST",
            {"queries": ["keyword search", "databases"], "k": 2},
        )
        assert status == 200 and payload["count"] == 2
        assert all(r["status"] in ("ok", "degraded") for r in payload["results"])

    def test_metrics_exposes_serving_counters(self, http_server):
        _http(http_server.address, "/search?q=databases")
        status, payload, _ = _http(http_server.address, "/metrics")
        snap = payload["metrics"]
        assert status == 200
        assert snap["serve.requests"] >= 1
        assert snap["swap.generation"] >= 1
        assert "serve.pressure" in snap

    def test_metrics_prometheus_over_http(self, http_server):
        _http(http_server.address, "/search?q=databases")
        url = http_server.address + "/metrics?format=prometheus"
        with urllib.request.urlopen(url, timeout=10) as resp:
            content_type = resp.headers["Content-Type"]
            families = parse_exposition(resp.read().decode("utf-8"))
        assert content_type.startswith("text/plain; version=0.0.4")
        assert families["repro_serve_requests"][0] == "counter"
        assert families["repro_serve_request_ms"][0] == "summary"
        assert families["repro_swap_generation"][0] == "gauge"
        status, payload, headers = _http(http_server.address, "/metrics")
        assert status == 200 and set(payload) == {"ok", "metrics"}
        assert headers["Content-Type"] == "application/json"
        status, payload, _ = _http(http_server.address, "/metrics?format=xml")
        assert status == 400 and "prometheus" in payload["error"]

    def test_steiner_past_the_group_cap_is_a_400(self, http_server):
        vocabulary = http_server.handle.engine.index.vocabulary
        query = "+".join([w for w in vocabulary if w.isalpha()][:11])
        base = f"/search?q={query}&method="

        def internal_errors():
            return _http(http_server.address, "/metrics")[1]["metrics"].get(
                "serve.internal_errors", 0
            )

        before = internal_errors()
        status, payload, _ = _http(http_server.address, base + "steiner")
        assert status == 400
        assert payload["error"] == "too many groups for exact DP (11 > 10)"
        # fallback=1 still descends to banks with the banks answer.
        status, fell_back, _ = _http(http_server.address, base + "steiner&fallback=1")
        _, banks, _ = _http(http_server.address, base + "banks")
        assert status == 200 and fell_back["results"]
        assert (fell_back["method"], fell_back["fallback_from"]) == ("banks", "steiner")
        assert "too many groups" in fell_back["degraded_reason"]
        assert fell_back["results"] == banks["results"]
        assert internal_errors() == before

    def test_request_id_header_over_http(self, http_server):
        ids = []
        for path in ("/search?q=databases", "/search"):
            _, _, headers = _http(http_server.address, path)
            ids.append(headers["X-Request-Id"])
        assert ids[0] != ids[1]
        status, _, headers = _http(
            http_server.address, "/batch", "POST", {"queries": ["databases"]},
            headers={"X-Request-Id": "trace-42"},
        )
        assert status == 200 and headers["X-Request-Id"] == "trace-42"

    def test_error_statuses(self, http_server):
        assert _http(http_server.address, "/nope")[0] == 404
        assert _http(http_server.address, "/batch")[0] == 405
        assert _http(http_server.address, "/search")[0] == 400
        status, payload, _ = _http(
            http_server.address, "/search?q=x&method=quantum"
        )
        assert status == 400 and "quantum" in payload["error"]

    def test_insert_then_search(self, http_server):
        status, payload, _ = _http(
            http_server.address, "/insert", "POST",
            {"table": "author",
             "values": {"aid": 901, "name": "zebediah serversmith"}},
        )
        assert status == 200 and payload["ok"]
        status, payload, _ = _http(
            http_server.address, "/search?q=zebediah"
        )
        assert status == 200 and payload["count"] >= 1

    def test_insert_validation_400(self, http_server):
        status, _, _ = _http(
            http_server.address, "/insert", "POST",
            {"table": "author", "values": {"aid": "not an int"}},
        )
        assert status == 400

    def test_swap_bumps_generation(self, http_server):
        before = _http(http_server.address, "/health")[1]["generation"]
        status, payload, _ = _http(
            http_server.address, "/admin/swap", "POST", {"source": "rebuild"}
        )
        assert status == 200 and payload["drained"]
        assert payload["generation"] == before + 1
        status, payload, _ = _http(http_server.address, "/search?q=databases")
        assert status == 200 and payload["generation"] == before + 1

    def test_swap_failpoint_fails_closed(self, http_server):
        before = _http(http_server.address, "/health")[1]["generation"]
        FAILPOINTS.activate("serve.swap", exc=RuntimeError("chaos"), times=1)
        status, payload, _ = _http(
            http_server.address, "/admin/swap", "POST", {"source": "rebuild"}
        )
        assert status == 500 and not payload["ok"]
        after = _http(http_server.address, "/health")[1]
        assert after["generation"] == before
        assert _http(http_server.address, "/ready")[0] == 200

    def test_admit_failpoint_is_scoped_by_tenant(self, http_server):
        FAILPOINTS.activate(
            "serve.admit", exc=RuntimeError("chaos"), key="victim"
        )
        try:
            status, _, _ = _http(
                http_server.address, "/search?q=databases&tenant=victim"
            )
            assert status == 500
            status, _, _ = _http(http_server.address, "/search?q=databases")
            assert status == 200
        finally:
            FAILPOINTS.deactivate("serve.admit")

    def test_queries_in_flight_survive_swap(self, http_server):
        """Mid-flight swap: zero failed, zero torn responses."""
        FAILPOINTS.activate(
            "engine.search", exc=None, delay=0.25, key="slow swap probe"
        )
        try:
            outcomes = []

            def query():
                outcomes.append(
                    _http(http_server.address,
                          "/search?q=slow+swap+probe&timeout_ms=10000")
                )

            threads = [threading.Thread(target=query) for _ in range(3)]
            for t in threads:
                t.start()
            time.sleep(0.05)  # let the queries pin the old generation
            status, swap_payload, _ = _http(
                http_server.address, "/admin/swap", "POST",
                {"source": "rebuild"},
            )
            for t in threads:
                t.join(15.0)
            assert status == 200 and swap_payload["drained"]
            assert len(outcomes) == 3
            for code, payload, _ in outcomes:
                assert code == 200 and payload["ok"]
                # Pinned to the pre-swap generation, start to finish.
                assert payload["generation"] == swap_payload["previous_generation"]
        finally:
            FAILPOINTS.deactivate("engine.search")

    def test_client_disconnect_cancels_request(self, http_server):
        metrics = MetricsRegistry()
        sharded_server = ServingServer(
            build_engine(tiny_bibliographic_db(), shards=2, metrics=metrics),
            port=0,
            max_concurrency=4,
            metrics=metrics,
        )
        sharded_server.start_in_thread()
        FAILPOINTS.activate(
            "engine.search", exc=None, delay=0.4, key="sleepy disconnect"
        )
        try:
            for server in (http_server, sharded_server):
                self._disconnect_mid_query(server)
            # Behind the coordinator too the query unwinds at its first
            # tick instead of finishing unread work on every shard.
            deadline = time.time() + 5.0
            while time.time() < deadline:
                snap = _http(sharded_server.address, "/metrics")[1]["metrics"]
                if snap.get("serve.cancelled", 0) >= 1:
                    break
                time.sleep(0.05)
            assert snap.get("serve.cancelled", 0) >= 1
            assert snap["shard_query.degraded"] == snap["shard_query.count"] == 1
            assert snap.get("shard.evaluated", 0) == 0
        finally:
            FAILPOINTS.deactivate("engine.search")
            sharded_server.stop()

    @staticmethod
    def _disconnect_mid_query(server):
        before = _http(server.address, "/metrics")[1]["metrics"].get(
            "serve.disconnects", 0
        )
        sock = socket.create_connection((server.host, server.port), timeout=5)
        sock.sendall(
            b"GET /search?q=sleepy+disconnect&timeout_ms=10000 HTTP/1.1\r\n"
            b"Host: x\r\n\r\n"
        )
        time.sleep(0.1)  # request reaches the worker
        sock.close()
        deadline = time.time() + 5.0
        while time.time() < deadline:
            now = _http(server.address, "/metrics")[1]["metrics"].get(
                "serve.disconnects", 0
            )
            if now > before:
                break
            time.sleep(0.05)
        assert now > before


class TestServedResultCache:
    """Every HTTP query carries a budget; complete answers reach it from
    the result LRU all the same, on one engine and on two shards."""

    @pytest.fixture(params=[1, 2], ids=["single", "shards2"])
    def cached_server(self, request):
        metrics = MetricsRegistry()
        engine = build_engine(
            tiny_bibliographic_db(), shards=request.param, metrics=metrics
        )
        # No latency target: the admission pressure every body reports
        # stays 0 for sequential requests, so bodies compare whole.
        server = ServingServer(
            engine, port=0, max_concurrency=2, target_latency_ms=0, metrics=metrics
        )
        server.start_in_thread()
        yield server, engine
        server.stop()
        engine.close()

    @staticmethod
    def _hits(engine):
        return engine.metrics.snapshot().get(f"{engine.metric_prefix}.cache_hits", 0)

    @staticmethod
    def _body(payload):
        return {key: value for key, value in payload.items() if key != "elapsed_ms"}

    def test_repeated_search_is_a_cache_hit(self, cached_server):
        server, engine = cached_server
        for path in ("/search?q=widom+xml&k=3", "/search?q=john+database&method=banks"):
            status, first, first_headers = _http(server.address, path)
            hits = self._hits(engine)
            status_again, again, again_headers = _http(server.address, path)
            assert status == status_again == 200 and first["count"] > 0
            assert self._body(again) == self._body(first)
            assert again_headers["X-Request-Id"] != first_headers["X-Request-Id"]
            assert self._hits(engine) == hits + 1

    def test_batch_of_warm_queries_is_served_from_the_cache(self, cached_server):
        server, engine = cached_server
        body = {
            "queries": ["widom xml", "john database", "widom xml", "keyword search"],
            "k": 3,
        }
        status, first, _ = _http(server.address, "/batch", "POST", body)
        hits = self._hits(engine)
        status_again, again, _ = _http(server.address, "/batch", "POST", body)
        assert status == status_again == 200
        assert self._body(again) == self._body(first)
        assert self._hits(engine) == hits + 3  # the distinct queries

    def test_a_warm_key_still_answers_a_gone_client_with_499(self, cached_server):
        server, engine = cached_server
        assert _http(server.address, "/search?q=widom+xml")[0] == 200
        count = engine.metrics.snapshot()[f"{engine.metric_prefix}.count"]
        # A second router over the same engine, driven from this thread's
        # loop, so the hang-up lands while a request waits for a slot.
        metrics = MetricsRegistry()
        executor = ThreadPoolExecutor(max_workers=1)
        router = Router(
            handle=EngineHandle(engine, metrics=metrics),
            admission=AdmissionController(
                max_concurrency=1, max_queue_depth=2, metrics=metrics
            ),
            executor=executor,
            metrics=metrics,
        )

        async def scenario():
            gone = Request("GET", "/search", {"q": "widom xml"})
            gone.cancel()
            before_dispatch = await router.dispatch(gone)
            await router.slots.acquire()  # the one worker slot held
            # The warm key needs no slot: it is answered at once ...
            warm = await router.dispatch(Request("GET", "/search", {"q": "widom xml"}))
            # ... while a cold key queues, and its client hangs up there.
            cold = Request("GET", "/search", {"q": "john database"})
            task = asyncio.ensure_future(router.dispatch(cold))
            await asyncio.sleep(0.05)
            queued = not task.done()
            cold.cancel()
            router.slots.release()
            return before_dispatch, warm, queued, await task

        try:
            before_dispatch, warm, queued, cold = asyncio.run(scenario())
        finally:
            executor.shutdown(wait=False)
        assert (before_dispatch.status, cold.status) == (499, 499)
        assert warm.status == 200 and warm.payload["count"] > 0 and queued
        snap = metrics.snapshot()
        assert snap["serve.disconnects"] == 2
        assert snap["serve.cache_served.search"] == 1
        # Only the warm answer reached the engine; neither gone request did.
        assert engine.metrics.snapshot()[f"{engine.metric_prefix}.count"] == count + 1


def _e2e_zipf_pool():
    """The end-to-end benchmark's biblio-150 database and its 80-query
    Zipf pool (``benchmarks/e2e/workloads.py``)."""
    e2e = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "e2e")
    sys.path.insert(0, e2e)
    try:
        from child import build_db
        from workloads import zipf_pool
    finally:
        sys.path.remove(e2e)
    db = build_db("biblio-150")
    return db, zipf_pool(db)


def _loop_served(metrics):
    return metrics.snapshot().get("serve.cache_served.search", 0)


class TestLoopServedHits:
    """A ``/search`` whose complete answer is in the current engine's
    result LRU, chargeable to the request's budget, is answered on the
    event loop: no worker slot, no thread, the same body."""

    @pytest.mark.parametrize("shards", [1, 2], ids=["single", "shards2"])
    def test_loop_body_equals_worker_body_on_the_zipf_pool(self, shards):
        db, pool = _e2e_zipf_pool()
        assert len(pool) == 80
        metrics = MetricsRegistry()
        engine = build_engine(db, shards=shards, metrics=metrics)
        server = ServingServer(
            engine, port=0, max_concurrency=2, target_latency_ms=0, metrics=metrics
        )
        server.start_in_thread()
        try:
            for k in (10, 3):
                for text in pool:
                    path = f"/search?q={text.replace(' ', '+')}&k={k}"
                    served = _loop_served(metrics)
                    status, worker, _ = _http(server.address, path)
                    assert status == 200 and _loop_served(metrics) == served
                    status, loop, _ = _http(server.address, path)
                    assert status == 200 and _loop_served(metrics) == served + 1
                    worker.pop("elapsed_ms"), loop.pop("elapsed_ms")
                    assert loop == worker, (text, k)
                    assert worker["count"] > 0 and not worker["degraded"]
        finally:
            server.stop()
            engine.close()

    @pytest.fixture(params=[1, 2], ids=["single", "shards2"])
    def warm_router(self, request):
        """A one-slot router over an engine that has answered ``widom xml``."""
        metrics = MetricsRegistry()
        engine = build_engine(tiny_bibliographic_db(), shards=request.param)
        executor = ThreadPoolExecutor(max_workers=1)
        router = Router(
            handle=EngineHandle(engine, metrics=metrics),
            admission=AdmissionController(
                max_concurrency=1, max_queue_depth=9, target_latency_ms=0,
                metrics=metrics,
            ),
            executor=executor,
            metrics=metrics,
        )
        warm = _dispatch(router, Request("GET", "/search", {"q": "widom xml"}))
        assert warm.status == 200 and warm.payload["count"] > 0
        assert _loop_served(metrics) == 0
        yield engine, router, warm.payload
        executor.shutdown(wait=False)
        engine.close()

    @staticmethod
    def _count_runs(engine, monkeypatch):
        runs = []
        run_query = engine._run_query

        def counting(*args, **kwargs):
            runs.append(args[0])
            return run_query(*args, **kwargs)

        monkeypatch.setattr(engine, "_run_query", counting)
        return runs

    def test_held_slots_do_not_delay_a_warm_key(self, warm_router, monkeypatch):
        engine, router, _ = warm_router
        runs = self._count_runs(engine, monkeypatch)

        async def scenario():
            await router.slots.acquire()  # every slot held
            try:
                warm = await asyncio.wait_for(
                    router.dispatch(Request("GET", "/search", {"q": "widom xml"})), 1.0
                )
                assert runs == []  # answered without running a query
                cold = asyncio.ensure_future(
                    router.dispatch(Request("GET", "/search", {"q": "john database"}))
                )
                await asyncio.sleep(0.05)
                queued = not cold.done()
            finally:
                router.slots.release()
            return warm, queued, await cold

        warm, queued, cold = asyncio.run(scenario())
        assert warm.status == 200 and warm.payload["count"] > 0
        assert queued and cold.status == 200
        assert len(runs) == 1  # the cold key only
        snap = router.metrics.snapshot()
        assert snap["serve.cache_served.search"] == 1
        # A hit is a request, not queue wait or worker time.
        assert snap["serve.request_ms"]["count"] == 3
        assert snap["serve.queue_wait_ms.search"]["count"] == 2
        assert snap["serve.exec_ms.search"]["count"] == 2
        _assert_idle(router)

    def test_a_budget_below_the_recorded_cost_goes_to_the_worker(
        self, warm_router, monkeypatch
    ):
        engine, router, _ = warm_router
        runs = self._count_runs(engine, monkeypatch)
        capped = Request("GET", "/search", {"q": "widom xml", "max_expansions": "1"})
        with engine.profiled() as prof:
            response = _dispatch(router, capped)
        assert response.status == 200 and response.payload["degraded"]
        assert "budget exhausted (1)" in response.payload["degraded_reason"]
        assert len(runs) == 1 and _loop_served(router.metrics) == 0
        (lookup,) = [s for s in prof.traces[0].spans() if s.name == "cache_lookup"]
        assert lookup.tags["outcome"] == "over_budget"
        # Untraced, the loop's charge refuses it the same way.
        response = _dispatch(router, capped)
        assert response.payload["degraded"] and len(runs) == 2
        assert _loop_served(router.metrics) == 0

    def test_a_stale_engine_never_answers_from_the_loop(self, warm_router):
        engine, router, warm = warm_router
        engine.db.insert("author", aid=9001, name="widom zanzibar", affiliation=None)
        assert engine.db.data_version != engine._served_version
        assert engine.cached_answer("widom xml", 10, "schema", None) is None
        response = _dispatch(router, Request("GET", "/search", {"q": "widom xml"}))
        assert response.status == 200 and _loop_served(router.metrics) == 0
        assert engine.db.data_version == engine._served_version  # the worker refreshed
        fresh = _dispatch(router, Request("GET", "/search", {"q": "widom xml"}))
        assert _loop_served(router.metrics) == 1
        response.payload.pop("elapsed_ms"), fresh.payload.pop("elapsed_ms")
        assert fresh.payload == response.payload

    @pytest.mark.parametrize("depth, mode", [(6, MODE_FALLBACK), (9, MODE_INDEX_ONLY)])
    def test_pressure_never_rewrites_a_warm_key(self, warm_router, depth, mode):
        engine, router, warm = warm_router
        for _ in range(depth):  # capacity 10: pressure depth / 10
            router.admission.enqueued()
        try:
            hit = _dispatch(router, Request("GET", "/search", {"q": "widom xml"}))
            cold = _dispatch(router, Request("GET", "/search", {"q": "john database"}))
        finally:
            for _ in range(depth):
                router.admission.abandoned()
        assert hit.status == 200 and hit.payload["method"] == "schema"
        assert hit.payload["admission"]["mode"] == MODE_FULL
        assert hit.payload["results"] == warm["results"]
        assert cold.status == 200 and cold.payload["admission"]["mode"] == mode
        if mode == MODE_INDEX_ONLY:
            assert cold.payload["method"] == "index_only"

    def test_a_hit_needs_no_refresh_parse_or_run(self, warm_router, monkeypatch):
        engine, router, warm = warm_router

        def boom(*args, **kwargs):
            raise AssertionError("a loop-served hit computed something")

        for hook in ("_run_query", "refresh", "_parse_canonical"):
            monkeypatch.setattr(engine, hook, boom)
        response = _dispatch(router, Request("GET", "/search", {"q": "widom xml"}))
        assert response.status == 200 and _loop_served(router.metrics) == 1
        assert response.payload["results"] == warm["results"]

    def test_a_served_key_outlives_a_flood_of_cold_queries(self):
        """A loop hit promotes its parse-memo and LRU entries as a
        search's lookup does: more cold queries than either memo holds
        never evict a key that keeps being served from the loop."""
        engine = KeywordSearchEngine(tiny_bibliographic_db())
        engine.search("widom xml")
        for i in range(1100):  # parse memo holds 1024 texts, the LRU 512
            engine.search(f"widom^1.{i:04d} xml")
            if i % 100 == 0:
                serve = engine.cached_answer("widom xml", 10, "schema", None)
                assert serve is not None, i
                serve()
        assert engine.cached_answer("widom xml", 10, "schema", None)

    def test_a_tenant_over_its_rate_leaves_no_trace_of_a_hit(self, warm_router):
        """A warm key the tenant bucket refuses is a 429 the engine never
        sees: no query, no cache hit, no promotion in either memo."""
        engine, router, _ = warm_router
        prefix = engine.metric_prefix

        def engine_counts():
            snap = engine.metrics.snapshot()
            return (
                [snap.get(f"{prefix}.{name}", 0) for name in ("count", "cache_hits")],
                engine.cache_stats()["results"],
                engine._parse_cache.stats.as_dict(),
            )

        router.admission.tenant_rate, router.admission.tenant_burst = 1e-6, 1.0
        spend = Request("GET", "/search", {"q": "john database", "tenant": "broke"})
        assert _dispatch(router, spend).status == 200  # the bucket's one token
        before = engine_counts()
        broke = Request("GET", "/search", {"q": "widom xml", "tenant": "broke"})
        response = _dispatch(router, broke)
        assert response.status == 429 and "rate limit" in response.payload["reason"]
        assert engine_counts() == before and _loop_served(router.metrics) == 0
        served = _dispatch(router, Request("GET", "/search", {"q": "widom xml"}))
        assert served.status == 200 and _loop_served(router.metrics) == 1
        assert engine_counts() != before
        _assert_idle(router)

    def test_only_a_request_that_waits_starts_the_watcher(self, warm_router):
        """The transport's hang-up watch starts before the slot wait and
        before every hop to a worker thread, and never for a hit."""
        engine, router, _ = warm_router
        requests = {
            "hit": Request("GET", "/search", {"q": "widom xml"}),
            "cold": Request("GET", "/search", {"q": "john database"}),
            "batch": Request("POST", "/batch", body={"queries": ["widom xml"]}),
            "insert": Request(
                "POST",
                "/insert",
                body={"table": "author", "values": {"aid": 9002, "name": "x"}},
            ),
        }
        watched = []
        for name, request in requests.items():
            request.on_wait = lambda name=name: watched.append(name)
            assert _dispatch(router, request).status == 200, name
        assert watched == ["cold", "batch", "insert"]

    def test_a_client_gone_before_dispatch_is_499(self, warm_router):
        engine, router, _ = warm_router
        count = engine.metrics.snapshot()[f"{engine.metric_prefix}.count"]
        gone = Request("GET", "/search", {"q": "widom xml"})
        gone.cancel()
        response = _dispatch(router, gone)
        assert response.status == 499 and "X-Request-Id" in response.headers
        assert _loop_served(router.metrics) == 0
        assert engine.metrics.snapshot()[f"{engine.metric_prefix}.count"] == count
        _assert_idle(router)


class TestNonFiniteNumbersOverHttp:
    """No body carries ``Infinity`` or ``NaN``: a non-finite weight,
    range bound or knob is a 400 naming it."""

    @pytest.mark.parametrize(
        "q, token",
        [
            ("data^inf", "'inf'"),
            ("data^1e400 xml", "'1e400'"),
            ("data^nan", "'nan'"),
            ("x^nan", "'nan'"),
            ('"a b"^inf', "'inf'"),
            ("year:nan..inf", "year:nan..inf"),
        ],
    )
    def test_non_finite_query_numbers_are_400(self, http_server, q, token):
        from urllib.parse import quote

        status, payload, _ = _http(http_server.address, f"/search?q={quote(q)}")
        assert status == 400 and "finite" in payload["error"]
        assert token in payload["error"]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_timeout_is_400(self, http_server, value):
        status, payload, _ = _http(
            http_server.address, f"/search?q=databases&timeout_ms={value}"
        )
        assert status == 400 and "timeout_ms must be a finite number" in payload["error"]

    def test_an_unencodable_payload_is_a_500_not_infinity(self):
        async def scenario():
            server = ServingServer(KeywordSearchEngine(tiny_bibliographic_db()), port=0)
            captured = bytearray()

            class Writer:
                def write(self, data):
                    captured.extend(data)

                async def drain(self):
                    pass

            response = Response(200, {"score": float("inf")}, headers={"X-Request-Id": "r1"})
            await server._write_response(Writer(), response, keep_alive=False)
            server.executor.shutdown(wait=False)
            return bytes(captured)

        raw = asyncio.run(scenario())
        assert raw.startswith(b"HTTP/1.1 500 ") and b"X-Request-Id: r1" in raw
        assert b"Infinity" not in raw


class TestRecoverSwapKeepsEngineShape:
    def test_sharded_columnar_server_recovers_as_one(self, tmp_path):
        """A ``recover`` swap builds the next generation through the
        server's own ``engine_builder``: same engine kind, shard count
        and backend, same answers, and inserts keep landing in it."""
        from repro.sharding.coordinator import ShardedSearchEngine

        options = {"shards": 2, "backend": "columnar"}
        server = ServingServer(
            build_engine(tiny_bibliographic_db(), **options),
            port=0,
            durable_dir=str(tmp_path / "d"),
            engine_builder=lambda live_db: build_engine(live_db, **options),
        )
        server.start_in_thread()
        try:
            paths = ["/search?q=widom+xml&k=5", "/search?q=widom+xml&k=5&method=banks"]
            before = [_http(server.address, path)[1]["results"] for path in paths]
            assert all(before)
            old = server.handle.engine
            status, payload, _ = _http(
                server.address, "/admin/swap", "POST", {"source": "recover"}
            )
            assert status == 200 and payload["drained"]
            live = server.handle.engine
            assert live is not old
            assert isinstance(live, ShardedSearchEngine)
            assert len(live.shards) == 2
            assert live.backend_name == "columnar"
            after = [_http(server.address, path)[1]["results"] for path in paths]
            assert after == before
            status, payload, _ = _http(
                server.address, "/insert", "POST",
                {"table": "author",
                 "values": {"aid": 41_001, "name": "quillon afterswap"}},
            )
            assert status == 200 and payload["ok"]
            status, payload, _ = _http(server.address, "/search?q=quillon")
            assert status == 200 and payload["count"] >= 1
        finally:
            drained = server.stop()
        assert drained


class TestSwapDrainOutsideMutationLock:
    def test_insert_not_stalled_by_swap_drain(self):
        """The drain runs outside the mutation lock.

        A slow query pinned to the old generation makes the swap's
        drain wait, but inserts (and other mutations) must keep
        flowing the moment the new generation is flipped in.  Own
        server: the 2s pinned query would poison the shared fixture's
        latency EWMA for every later test.
        """
        db = tiny_bibliographic_db()
        server = ServingServer(
            KeywordSearchEngine(db),
            port=0,
            max_concurrency=4,
            engine_builder=lambda live_db: KeywordSearchEngine(live_db),
        )
        server.start_in_thread()
        FAILPOINTS.activate(
            "engine.search", exc=None, delay=2.0, key="drain pin probe"
        )
        try:
            t_query = threading.Thread(
                target=lambda: _http(
                    server.address,
                    "/search?q=drain+pin+probe&timeout_ms=15000",
                )
            )
            t_query.start()
            time.sleep(0.2)  # the query pins the current generation
            swap_outcome = {}

            def swapper():
                swap_outcome["r"] = _http(
                    server.address, "/admin/swap", "POST",
                    {"source": "rebuild"},
                )

            t_swap = threading.Thread(target=swapper)
            t_swap.start()
            time.sleep(0.3)  # the swap has flipped and is now draining
            t0 = time.perf_counter()
            status, payload, _ = _http(
                server.address, "/insert", "POST",
                {"table": "author",
                 "values": {"aid": 77_001, "name": "drainproof writer"}},
            )
            insert_s = time.perf_counter() - t0
            swap_still_draining = t_swap.is_alive()
            t_query.join(20.0)
            t_swap.join(20.0)
            assert status == 200 and payload["ok"]
            assert swap_still_draining, "the swap should still be draining"
            assert insert_s < 1.0, f"insert stalled {insert_s:.2f}s behind drain"
            code, swap_payload, _ = swap_outcome["r"]
            assert code == 200 and swap_payload["drained"]
        finally:
            FAILPOINTS.deactivate("engine.search")
            server.stop()


class TestRateLimitOverHttp:
    def test_429_carries_retry_after_header(self):
        db = tiny_bibliographic_db()
        server = ServingServer(
            KeywordSearchEngine(db), port=0,
            tenant_rate=1.0, tenant_burst=1.0,
        )
        server.start_in_thread()
        try:
            assert _http(server.address, "/search?q=databases")[0] == 200
            status, payload, headers = _http(
                server.address, "/search?q=databases"
            )
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            assert payload["retry_after_s"] > 0
            assert "rate limit" in payload["reason"]
        finally:
            server.stop()


class TestGracefulShutdown:
    def test_stop_drains_inflight_requests(self):
        db = tiny_bibliographic_db()
        server = ServingServer(
            KeywordSearchEngine(db), port=0, drain_timeout_s=5.0
        )
        server.start_in_thread()
        FAILPOINTS.activate(
            "engine.search", exc=None, delay=0.4, key="slow shutdown probe"
        )
        outcome = {}

        def slow_query():
            outcome["response"] = _http(
                server.address, "/search?q=slow+shutdown+probe&timeout_ms=10000"
            )

        try:
            t = threading.Thread(target=slow_query)
            t.start()
            time.sleep(0.1)  # the query is on a worker thread now
            drained = server.stop()
            t.join(10.0)
            assert drained, "drain deadline must not be hit"
            code, payload, _ = outcome["response"]
            assert code == 200 and payload["ok"]
        finally:
            FAILPOINTS.deactivate("engine.search")

    def test_stop_with_an_idle_keep_alive_connection_logs_nothing(self):
        """The handler of a connection idle between requests is
        cancelled when the loop closes; it ends quietly."""
        records, contexts = [], []

        class Collect(logging.Handler):
            def emit(self, record):
                records.append(record.getMessage())

        handler = Collect()
        asyncio_logger = logging.getLogger("asyncio")
        asyncio_logger.addHandler(handler)
        server = ServingServer(KeywordSearchEngine(tiny_bibliographic_db()), port=0)
        server.start_in_thread()
        server._loop.set_exception_handler(lambda loop, context: contexts.append(context))
        conn = http.client.HTTPConnection(server.host, server.port, timeout=5)
        try:
            conn.request("GET", "/search?q=widom+xml")
            response = conn.getresponse()
            assert response.status == 200 and json.loads(response.read())["ok"]
            assert server.stop()
        finally:
            conn.close()
            asyncio_logger.removeHandler(handler)
        assert records == [] and contexts == []


class TestHangUpCountedOnce:
    def test_a_client_gone_while_queued_counts_one_disconnect(self):
        """The transport sees the hang-up and the router answers it with
        a 499: ``serve.disconnects`` moves by one, not by one each."""
        server = ServingServer(
            KeywordSearchEngine(tiny_bibliographic_db()),
            port=0,
            max_concurrency=1,
            max_queue_depth=4,
        )
        server.start_in_thread()
        FAILPOINTS.activate("engine.search", exc=None, delay=0.5, key="slot holder")
        holder = {}

        def hold_the_slot():
            holder["response"] = _http(server.address, "/search?q=slot+holder")

        try:
            thread = threading.Thread(target=hold_the_slot)
            thread.start()
            deadline = time.time() + 5.0
            while not FAILPOINTS.hits("engine.search"):
                assert time.time() < deadline
                time.sleep(0.005)
            sock = socket.create_connection((server.host, server.port), timeout=5)
            sock.sendall(
                b"GET /search?q=john+database&timeout_ms=10000 HTTP/1.1\r\n"
                b"Host: x\r\n\r\n"
            )
            time.sleep(0.1)  # queued behind the slot holder
            sock.close()
            thread.join(10.0)
            assert holder["response"][0] == 200
            deadline = time.time() + 5.0
            while time.time() < deadline:
                snap = _http(server.address, "/metrics")[1]["metrics"]
                if snap.get("serve.disconnects", 0):
                    break
                time.sleep(0.02)
            time.sleep(0.1)
            snap = _http(server.address, "/metrics")[1]["metrics"]
            assert snap["serve.disconnects"] == 1
            assert snap.get("serve.cancelled", 0) == 0
        finally:
            FAILPOINTS.deactivate("engine.search")
            server.stop()


class TestServeRestart:
    def test_cli_serve_on_populated_dir_wraps_the_plain_engine_once(
        self, tmp_path, capsys
    ):
        """``repro serve --dir D`` on a populated D must hand the server
        the recovered *engine* — not a DurableEngine that the server
        then wraps in a second one (two WAL handles on one directory)."""
        from repro.cli import _build_server, _register_datasets, build_parser

        _register_datasets()
        argv = ["serve", "--dataset", "tiny", "--dir", str(tmp_path / "d"), "--port", "0"]

        def build():
            server = _build_server(build_parser().parse_args(argv))
            assert isinstance(server, ServingServer)
            return server

        def dispose(server):
            server.durable.close()
            server.executor.shutdown(wait=True)

        first = build()
        try:
            first.durable.insert(
                "author", aid=900, name="restart probe", affiliation=None
            )
        finally:
            dispose(first)
        second = build()
        try:
            assert "recovered:" in capsys.readouterr().out
            assert isinstance(second.durable.engine, KeywordSearchEngine)
            assert second.handle.engine is second.durable.engine
            before = second.durable.wal.last_lsn
            second.durable.insert(
                "author", aid=901, name="restart probe two", affiliation=None
            )
            assert second.durable.wal.last_lsn == before + 1
            found = second.durable.search("restart probe", k=5, method="index_only")
            assert len(found) == 2
        finally:
            dispose(second)

    @pytest.mark.parametrize("source", ["rebuild", "recover"])
    def test_cli_serve_metrics_carry_every_engine_generation(self, tmp_path, source):
        """``repro serve``'s ``/metrics`` reads the registry its engines
        report into: the boot engine's ``query.count`` shows after one
        ``/search``, survives an ``/admin/swap`` and keeps counting on
        the swapped-in generation."""
        from repro.cli import _build_server, _register_datasets, build_parser

        _register_datasets()
        argv = ["serve", "--dataset", "tiny", "--port", "0"]
        if source == "recover":
            argv += ["--dir", str(tmp_path / "d")]
        server = _build_server(build_parser().parse_args(argv))
        server.start_in_thread()
        try:
            query_count = lambda: _http(server.address, "/metrics")[1]["metrics"][
                "query.count"
            ]
            assert _http(server.address, "/search?q=widom+xml")[0] == 200
            assert query_count() == 1
            old = server.handle.engine
            status, payload, _ = _http(
                server.address, "/admin/swap", "POST", {"source": source}
            )
            assert status == 200 and payload["drained"]
            assert server.handle.engine is not old
            assert query_count() == 1
            assert _http(server.address, "/search?q=widom+xml")[0] == 200
            assert query_count() == 2
        finally:
            assert server.stop()
