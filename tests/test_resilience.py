"""Fault-injection tests for the resilient serving path.

Covers the taxonomy, budgets, the degradation ladder, the failpoint
registry and per-query fault isolation in batches.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import KeywordSearchEngine
from repro.core.factory import build_engine
from repro.core.results import ResultSet
from repro.core.xml_engine import XmlSearchEngine
from repro.datasets.bibliographic import tiny_bibliographic_db
from repro.datasets.xml_corpora import slide_conf_tree
from repro.obs.metrics import MetricsRegistry
from repro.perf.batch import BatchQuery, as_batch_query
from repro.query.compiler import FilteredTupleSets, compile_query
from repro.relational.database import Database
from repro.relational.schema import Column, ForeignKey, Schema, TableSchema
from repro.resilience.budget import QueryBudget, make_budget
from repro.resilience.degradation import KNOWN_METHODS, fallback_chain
from repro.resilience.errors import (
    BudgetExceededError,
    FaultInjectedError,
    QueryParseError,
    ReproError,
    SearchExecutionError,
    SubstrateBuildError,
    UnsupportedSchemaError,
    classify_error,
)
from repro.resilience.failpoints import FAILPOINTS
from repro.serving.admission import AdmissionController
from repro.serving.routes import Request, Router
from repro.serving.swap import EngineHandle
from repro.xml_search.slca import slca_indexed_lookup_eager, slca_scan_eager


def result_signature(results):
    return [(r.score, r.network, tuple(r.tuple_ids())) for r in results]


@pytest.fixture()
def engine():
    return KeywordSearchEngine(tiny_bibliographic_db())


# ----------------------------------------------------------------------
# Error taxonomy
# ----------------------------------------------------------------------
class TestErrorTaxonomy:
    def test_hierarchy(self):
        assert issubclass(QueryParseError, ReproError)
        assert issubclass(QueryParseError, ValueError)  # back compat
        assert issubclass(BudgetExceededError, ReproError)
        assert issubclass(FaultInjectedError, ReproError)

    def test_classify_passthrough_and_wrapping(self):
        original = SubstrateBuildError("index")
        assert classify_error(original) is original
        wrapped = classify_error(ValueError("bad k"))
        assert isinstance(wrapped, QueryParseError)
        wrapped = classify_error(RuntimeError("boom"))
        assert isinstance(wrapped, SearchExecutionError)
        assert "boom" in str(wrapped)

    def test_substrate_error_carries_site(self):
        err = SubstrateBuildError("data_graph", RuntimeError("disk"))
        assert err.site == "data_graph"
        assert "data_graph" in str(err) and "disk" in str(err)


# ----------------------------------------------------------------------
# QueryBudget
# ----------------------------------------------------------------------
class TestQueryBudget:
    def test_counter_exhaustion(self):
        budget = QueryBudget(max_nodes=3)
        budget.tick_nodes()
        budget.tick_nodes(2)
        with pytest.raises(BudgetExceededError):
            budget.tick_nodes()
        assert budget.exhausted
        assert "node expansion" in budget.reason

    def test_counters_are_independent(self):
        budget = QueryBudget(max_cns=1)
        budget.tick_nodes(100)
        budget.tick_candidates(100)
        budget.tick_cns()
        with pytest.raises(BudgetExceededError):
            budget.tick_cns()

    def test_deadline_with_fake_clock(self):
        now = [0.0]
        budget = QueryBudget(
            timeout_ms=50, clock=lambda: now[0], deadline_check_every=1
        )
        budget.checkpoint()
        now[0] = 0.051
        with pytest.raises(BudgetExceededError):
            budget.checkpoint()
        assert "deadline" in budget.reason

    def test_deadline_checked_every_n_ops(self):
        reads = [0]

        def clock():
            reads[0] += 1
            return 0.0

        budget = QueryBudget(timeout_ms=1000, clock=clock, deadline_check_every=32)
        reads[0] = 0
        for _ in range(64):
            budget.checkpoint()
        assert reads[0] <= 3  # op 1, 32, 64 — not 64 clock reads

    def test_exhausted_budget_keeps_raising(self):
        budget = QueryBudget(max_nodes=0)
        with pytest.raises(BudgetExceededError):
            budget.tick_nodes()
        with pytest.raises(BudgetExceededError):
            budget.checkpoint()

    def test_renew_resets_counters_not_deadline(self):
        now = [0.0]
        budget = QueryBudget(
            timeout_ms=100, max_nodes=1, clock=lambda: now[0], deadline_check_every=1
        )
        with pytest.raises(BudgetExceededError):
            budget.tick_nodes(2)
        budget.renew()
        assert not budget.exhausted and budget.nodes_expanded == 0
        budget.tick_nodes()  # fine again
        now[0] = 1.0  # the original deadline still applies post-renew
        budget.renew()
        with pytest.raises(BudgetExceededError):
            budget.checkpoint()

    def test_make_budget(self):
        assert make_budget(None, None) is None
        budget = make_budget(None, 7)
        assert budget.max_nodes == budget.max_cns == budget.max_candidates == 7
        assert make_budget(5.0, None).timeout_ms == 5.0

    def test_snapshot(self):
        budget = QueryBudget(max_nodes=10)
        budget.tick_nodes(4)
        snap = budget.snapshot()
        assert snap["nodes_expanded"] == 4
        assert snap["exhausted"] is False

    def test_spent_sums_every_fork(self):
        budget = QueryBudget()
        budget.tick_cns(3)
        fork = budget.fork()
        fork.tick_nodes(2)
        fork.fork().tick_candidates(5)
        budget.fork().tick_candidates(1)
        assert budget.spent() == (2, 3, 6)
        assert fork.spent() == (2, 0, 5)

    def test_charge_fits_every_cap_or_charges_nothing(self):
        budget = QueryBudget(max_nodes=5, max_cns=5, max_candidates=5)
        assert budget.charge((5, 0, 2))
        assert budget.spent() == (5, 0, 2)
        # Any one cap crossed refuses the whole charge.
        for cost in ((1, 0, 0), (0, 6, 0), (0, 0, 4)):
            assert not budget.charge(cost)
        assert budget.spent() == (5, 0, 2) and not budget.exhausted
        assert QueryBudget().charge((10**9, 10**9, 10**9))

    def test_charge_refused_past_the_deadline_or_poisoned(self):
        now = [0.0]
        budget = QueryBudget(timeout_ms=50, clock=lambda: now[0])
        for _ in range(3):
            budget.checkpoint()  # the deadline read is now sampled
        now[0] = 0.051
        # charge reads the clock itself: a hit skips the ticks that
        # would have sampled it.
        assert not budget.charge((0, 0, 0))
        assert budget.spent() == (0, 0, 0)
        poisoned = QueryBudget()
        poisoned.poison("client disconnected")
        assert not poisoned.charge((0, 0, 0))


# ----------------------------------------------------------------------
# Degraded search (acceptance: budget exhaustion never raises)
# ----------------------------------------------------------------------
class TestDegradedSearch:
    def test_unbudgeted_search_is_ok_resultset(self, engine):
        results = engine.search("john database", method="banks")
        assert isinstance(results, ResultSet)
        assert results.status == "ok"
        assert not results.degraded
        assert results.method == "banks"

    @pytest.mark.parametrize("method", list(KNOWN_METHODS))
    def test_tiny_budget_never_raises(self, engine, method):
        results = engine.search(
            "john database", method=method, max_expansions=1
        )
        assert isinstance(results, ResultSet)
        assert results.status in ("ok", "degraded")

    def test_distinct_root_stops_on_its_budget(self, engine):
        full = engine.search("john database", method="distinct_root")
        assert full and not full.degraded
        capped = engine.search(
            "john database", method="distinct_root", max_expansions=3
        )
        assert capped.degraded
        assert "node expansion budget" in (capped.degraded_reason or "")
        assert len(capped) < len(full)

    def test_zero_deadline_returns_degraded(self, engine):
        engine.search("john database")  # warm substrates
        results = engine.search("john database", timeout_ms=0)
        assert results.degraded
        assert "deadline" in (results.degraded_reason or "")

    def test_partial_results_flagged_degraded(self, engine):
        """Acceptance: some budget yields non-empty partial + degraded."""
        full = engine.search("john database", method="banks")
        assert len(full) > 1
        seen_partial = False
        for cap in range(1, 200):
            results = engine.search(
                "john database", method="banks", max_expansions=cap
            )
            if results.degraded and results:
                seen_partial = True
                assert len(results) <= len(full)
                break
        assert seen_partial, "no budget produced a non-empty degraded answer"

    def test_generous_budget_matches_unbudgeted(self, engine):
        full = engine.search("john database", method="banks")
        budgeted = engine.search(
            "john database", method="banks", max_expansions=10_000_000
        )
        assert not budgeted.degraded
        assert result_signature(budgeted) == result_signature(full)

    def test_only_complete_answers_are_cached(self, engine):
        """Degraded and fallen-back answers are never published; a
        complete answer computed under a budget is, and the next
        budgeted caller it fits is served it."""
        degraded = engine.search("john database", method="banks", max_expansions=1)
        assert degraded.degraded
        fell_back = engine.search(
            "john database", method="steiner", max_expansions=1, fallback=True
        )
        assert fell_back.fallback_from == "steiner"
        assert len(engine._result_cache) == 0
        clean = engine.search("john database", method="banks")
        assert clean.status == "ok"
        assert result_signature(clean) == result_signature(
            engine.search("john database", method="banks", use_cache=False)
        )

        budgeted = engine.search("widom xml", method="banks", max_expansions=10_000)
        assert not budgeted.degraded
        assert len(engine._result_cache) == 2
        hits = engine.cache_stats()["results"]["hits"]
        again = engine.search("widom xml", method="banks", timeout_ms=60_000)
        assert engine.cache_stats()["results"]["hits"] == hits + 1
        assert result_signature(again) == result_signature(budgeted)
        assert engine.metrics.snapshot()["query.cache_hits"] == 1

    def test_unknown_method_is_parse_error(self, engine):
        with pytest.raises(QueryParseError):
            engine.search("john", method="quantum")
        with pytest.raises(ValueError):  # old callers still catch this
            engine.search("john", method="quantum")

    def test_index_only_method(self, engine):
        results = engine.search("john database", method="index_only")
        assert results
        assert all(r.network.startswith("index-only(") for r in results)
        assert all(len(r.joined.rows) == 1 for r in results)
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)


# ----------------------------------------------------------------------
# The result LRU under budgets
# ----------------------------------------------------------------------
CACHE_QUERIES = ("john database", "widom xml", "xml query", "keyword search", "levy fagin")
CACHE_METHODS = ("schema", "banks", "index_only")


@pytest.fixture(scope="module")
def warm_engine():
    """One engine whose LRU holds every (query, method) complete answer."""
    engine = KeywordSearchEngine(tiny_bibliographic_db())
    for text in CACHE_QUERIES:
        for method in CACHE_METHODS:
            assert not engine.search(text, k=5, method=method).degraded
    return engine


def _recorded_cost(engine, text, method, k=5):
    entry = engine._result_cache.peek(engine._query_key(text, method, k))
    assert entry is not None, (text, method)
    return entry[1]


def _answer(results):
    return result_signature(results), results.degraded, results.degraded_reason


class TestBudgetedResultCache:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_a_capped_search_answers_like_an_uncached_one(self, warm_engine, data):
        """Whatever the cap — under, at or over the recorded cost — the
        cached path answers exactly what the uncached path does: a hit
        only when the whole computation would have fit."""
        text = data.draw(st.sampled_from(CACHE_QUERIES), label="query")
        method = data.draw(st.sampled_from(CACHE_METHODS), label="method")
        top = max(_recorded_cost(warm_engine, text, method))
        cap = data.draw(
            st.integers(max(0, top - 3), top + 3) | st.integers(0, 2 * top + 2),
            label="cap",
        )
        hits = warm_engine.metrics.snapshot().get("query.cache_hits", 0)
        cached = warm_engine.search(text, k=5, method=method, max_expansions=cap)
        served = warm_engine.metrics.snapshot().get("query.cache_hits", 0) - hits
        uncached = warm_engine.search(
            text, k=5, method=method, max_expansions=cap, use_cache=False
        )
        assert _answer(cached) == _answer(uncached)
        assert served == (cap >= top)
        # The entry is still the complete answer: nothing degraded was
        # published over it.
        assert not warm_engine._result_cache.peek(
            warm_engine._query_key(text, method, 5)
        )[0].degraded

    def test_a_hit_charges_the_recorded_cost(self, warm_engine):
        cost = _recorded_cost(warm_engine, "xml query", "schema")
        assert all(c > 0 for c in cost)
        budget = QueryBudget(max_nodes=10**6, max_cns=10**6, max_candidates=10**6)
        budget.tick_nodes(1)
        warm_engine.search("xml query", k=5, budget=budget)
        assert budget.spent() == (cost[0] + 1, cost[1], cost[2])

    def test_never_served_to_a_poisoned_or_late_budget(self, warm_engine):
        text = "john database"
        complete = warm_engine.search(text, k=5)
        hits = warm_engine.metrics.snapshot()["query.cache_hits"]
        poisoned = QueryBudget()
        poisoned.poison("client disconnected")
        cancelled = warm_engine.search(text, k=5, budget=poisoned)
        assert cancelled.degraded
        assert cancelled.degraded_reason == "client disconnected"
        now = [0.0]
        late = QueryBudget(timeout_ms=50, clock=lambda: now[0])
        now[0] = 1.0
        expired = warm_engine.search(text, k=5, budget=late)
        assert expired.degraded and "deadline" in expired.degraded_reason
        assert warm_engine.search(text, k=5, timeout_ms=0).degraded
        assert warm_engine.metrics.snapshot()["query.cache_hits"] == hits
        # The complete entry survives them all.
        assert _answer(warm_engine.search(text, k=5, timeout_ms=60_000)) == _answer(
            complete
        )

    def test_a_traced_budgeted_lookup_names_its_outcome(self):
        engine = KeywordSearchEngine(tiny_bibliographic_db())
        outcomes = []
        for budget in (QueryBudget(), QueryBudget(), QueryBudget(max_nodes=0)):
            results = engine.search("widom xml", budget=budget, trace=True)
            outcomes.append(results.trace.find("cache_lookup").tags["outcome"])
        assert outcomes == ["miss", "hit", "over_budget"]


# ----------------------------------------------------------------------
# Degradation ladder
# ----------------------------------------------------------------------
#: The ladder descends the same way whatever the query's shape (bare or
#: fielded) and whichever engine kind runs the rung (local or routed).
LADDER_QUERIES = ("john database", "author:widom xml")


@pytest.fixture()
def ladder_engines(engine):
    sharded = build_engine(tiny_bibliographic_db(), shards=2)
    yield engine, sharded
    sharded.close()


class TestDegradationLadder:
    def test_chains_terminate_at_index_only(self):
        for method in KNOWN_METHODS:
            chain = fallback_chain(method)
            assert chain[0] == method
            assert chain[-1] == "index_only"
            assert len(chain) == len(set(chain))

    def test_fallback_descends_on_structural_error(self, ladder_engines):
        # Poison the steiner rung itself; the ladder must land on banks.
        FAILPOINTS.activate(
            "engine.method", exc=ValueError("forced"), key="steiner"
        )
        for engine in ladder_engines:
            for text in LADDER_QUERIES:
                results = engine.search(text, method="steiner", fallback=True)
                assert results.degraded, text
                assert results.method == "banks", text
                assert results.fallback_from == "steiner"
                assert results  # banks found answers
                assert result_signature(results) == result_signature(
                    engine.search(text, method="banks", k=10, use_cache=False)
                )

    def test_fallback_reaches_terminal_rung(self, ladder_engines):
        FAILPOINTS.activate("engine.method", exc=ValueError, key="banks")
        for engine in ladder_engines:
            for text in LADDER_QUERIES:
                results = engine.search(text, method="banks", fallback=True)
                assert results.method == "index_only", text
                assert results.fallback_from == "banks"
                assert results

    def test_no_fallback_propagates_structural_error(self, ladder_engines):
        FAILPOINTS.activate(
            "engine.method", exc=ValueError("forced"), key="steiner"
        )
        for engine in ladder_engines:
            for text in LADDER_QUERIES:
                with pytest.raises(ValueError):
                    engine.search(text, method="steiner", fallback=False)

    @pytest.mark.parametrize("rung", ["schema", "index_only"])
    def test_method_failpoint_fires_on_scattered_rungs(self, ladder_engines, rung):
        """``schema`` / ``index_only`` scatter on a sharded engine instead
        of entering the local executor: the failpoint fires there too,
        once per rung, and both kinds answer alike."""
        FAILPOINTS.activate("engine.method", exc=ValueError("forced"), key=rung)
        terminal = rung == "index_only"
        for n, engine in enumerate(ladder_engines, start=1):
            with pytest.raises(ValueError, match="forced"):
                engine.search("john database", method=rung)
            assert FAILPOINTS.hits("engine.method") == 2 * n - 1
            results = engine.search("john database", method=rung, fallback=True)
            assert FAILPOINTS.hits("engine.method") == 2 * n
            assert results.degraded and results.degraded_reason == "forced"
            if terminal:
                assert results == [] and results.fallback_from is None
            else:
                assert results and results.method == "index_only"
                assert results.fallback_from == "schema"
        single, sharded = ladder_engines
        FAILPOINTS.clear()
        for engine in ladder_engines:  # disarmed: one clean hit-free answer
            assert result_signature(engine.search("john database", method=rung))
        assert result_signature(
            sharded.search("john database", method=rung, use_cache=False)
        ) == result_signature(single.search("john database", method=rung))

    def test_fallback_without_budget_clean_path(self, engine):
        results = engine.search("john database", method="banks", fallback=True)
        assert results.status == "ok"
        assert results.method == "banks"
        assert results.fallback_from is None


def emp_db() -> Database:
    """alice <- bob <- carol through ``emp.boss -> emp.eid``."""
    schema = Schema(
        [
            TableSchema(
                "emp",
                (
                    Column("eid", "int"),
                    Column("name", "str", text=True),
                    Column("boss", "int", nullable=True),
                ),
                "eid",
                (ForeignKey("boss", "emp", "eid"),),
            )
        ]
    )
    db = Database(schema)
    for eid, (name, boss) in enumerate([("alice", None), ("bob", 0), ("carol", 1)]):
        db.insert("emp", eid=eid, name=name, boss=boss)
    return db


class TestSelfReferencingForeignKey:
    """``schema`` cannot orient a self-referencing FK edge: it says so.

    It used to answer ``[]`` — the one satisfiable CN shares a canonical
    code with its unsatisfiable mirror — while ``banks`` found the tree.
    """

    QUERIES = ("alice bob", "bob alice", "bob carol", "carol bob")

    @pytest.fixture()
    def engines(self):
        sharded = build_engine(emp_db(), shards=2)
        yield build_engine(emp_db()), sharded
        sharded.close()

    def test_schema_refuses_naming_the_column(self, engines):
        for engine in engines:
            for text in self.QUERIES:
                assert engine.search(text, method="banks"), text
                with pytest.raises(UnsupportedSchemaError, match="emp.boss") as info:
                    engine.search(text, method="schema")
                assert isinstance(info.value, ReproError)
                assert isinstance(info.value, ValueError)
                assert not isinstance(info.value, QueryParseError)

    def test_fallback_descends_instead_of_answering_nothing(self, engines):
        for engine in engines:
            for text in self.QUERIES:
                results = engine.search(text, method="schema", fallback=True)
                assert results, text
                assert results.fallback_from == "schema"
                assert results.method == fallback_chain("schema")[1]
                assert "emp.boss" in results.degraded_reason

    def test_http_answers_400_not_200_and_empty(self):
        metrics = MetricsRegistry()
        with ThreadPoolExecutor(max_workers=1) as executor:
            router = Router(
                handle=EngineHandle(build_engine(emp_db()), metrics=metrics),
                admission=AdmissionController(metrics=metrics),
                executor=executor,
                metrics=metrics,
            )
            bad = asyncio.run(
                router.dispatch(Request("GET", "/search", {"q": "alice bob"}))
            )
            ok = asyncio.run(
                router.dispatch(
                    Request("GET", "/search", {"q": "alice bob", "method": "banks"})
                )
            )
        assert bad.status == 400 and "emp.boss" in bad.payload["error"]
        assert ok.status == 200 and ok.payload["results"]


class TestSteinerGroupCap:
    """``steiner`` past its exact DP's 10-group cap cannot answer the
    query: an :class:`UnsupportedSchemaError`, not a bare ``ValueError``
    the router would answer with a 500."""

    @staticmethod
    def eleven_words(engine):
        return " ".join([w for w in engine.index.vocabulary if w.isalpha()][:11])

    def test_library_raises_the_typed_error(self, engine):
        with pytest.raises(UnsupportedSchemaError, match=r"11 > 10") as info:
            engine.search(self.eleven_words(engine), method="steiner")
        assert not isinstance(info.value, QueryParseError)

    def test_search_many_isolates_a_non_transient_error(self, engine):
        text = self.eleven_words(engine)
        bad, good = engine.search_many(
            [text, "widom xml"], method="steiner", detailed=True
        )
        assert bad.status == "error"
        assert isinstance(bad.error, UnsupportedSchemaError)
        assert good.status == "ok" and good.results

    def test_router_answers_400_and_counts_no_internal_error(self, engine):
        metrics = MetricsRegistry()
        with ThreadPoolExecutor(max_workers=1) as executor:
            router = Router(
                handle=EngineHandle(engine, metrics=metrics),
                admission=AdmissionController(metrics=metrics),
                executor=executor,
                metrics=metrics,
            )
            response = asyncio.run(
                router.dispatch(
                    Request("GET", "/search", {"q": self.eleven_words(engine), "method": "steiner"})
                )
            )
        assert response.status == 400 and "11 > 10" in response.payload["error"]
        snapshot = metrics.snapshot()
        assert snapshot["serve.bad_requests"] == 1
        assert "serve.internal_errors" not in snapshot


class TestFilteredEnumerationFaultBoundary:
    """A row filter that empties a tuple set re-enumerates CNs on every
    request; that enumeration runs inside the same ``_build`` boundary
    as the memoised one (it used to call the generator directly)."""

    BARE = "john smith cloud"
    FILTERED = "affiliation:stanford john smith cloud"  # drops author^{john}

    def test_the_filter_empties_a_tuple_set(self, engine):
        compiled = compile_query(engine, engine._parse_canonical(self.FILTERED))
        base = engine.substrates.tuple_sets(list(compiled.branches[0]))
        filtered = FilteredTupleSets(base, compiled.row_filter)
        assert len(filtered.non_free_keys()) == len(base.non_free_keys()) - 1
        assert engine.search(self.FILTERED, use_cache=False)

    @pytest.mark.parametrize(
        "exc, raised",
        [(FaultInjectedError, FaultInjectedError), (RuntimeError("boom"), SubstrateBuildError)],
    )
    def test_failpoint_fails_filtered_exactly_as_bare(self, engine, exc, raised):
        FAILPOINTS.activate("substrates.candidate_networks", exc=exc)
        for text in (self.BARE, self.FILTERED):
            for fallback in (False, True):
                with pytest.raises(raised) as info:
                    engine.search(text, use_cache=False, fallback=fallback)
                if raised is SubstrateBuildError:
                    assert info.value.site == "candidate_networks"
        assert FAILPOINTS.hits("substrates.candidate_networks") == 4

    def test_histogram_and_builds_count_every_filtered_enumeration(self, engine):
        def counts():
            snap = engine.metrics.snapshot()
            observed = snap.get("substrates.build_ms.candidate_networks", {})
            return (
                observed.get("count", 0),
                engine.substrates.builds["candidate_networks"],
            )

        first = engine.search(self.FILTERED, use_cache=False)
        after_first = counts()
        assert after_first == (1, 1)
        again = engine.search(self.FILTERED, use_cache=False)
        assert counts() == (2, 2)  # not memoised: the list depends on the filter
        assert result_signature(again) == result_signature(first)
        engine.search(self.BARE, use_cache=False)
        engine.search(self.BARE, use_cache=False)
        assert counts() == (3, 3)  # the bare list is


# ----------------------------------------------------------------------
# Failpoint registry
# ----------------------------------------------------------------------
class TestFailpoints:
    def test_inactive_site_is_noop(self):
        FAILPOINTS.hit("nonexistent.site")  # must not raise

    def test_activate_and_deactivate(self):
        FAILPOINTS.activate("t.site")
        with pytest.raises(FaultInjectedError):
            FAILPOINTS.hit("t.site")
        FAILPOINTS.deactivate("t.site")
        FAILPOINTS.hit("t.site")
        assert FAILPOINTS.hits("t.site") == 1

    def test_times_limits_firings(self):
        FAILPOINTS.activate("t.site", exc=RuntimeError, times=2)
        for _ in range(2):
            with pytest.raises(RuntimeError):
                FAILPOINTS.hit("t.site")
        FAILPOINTS.hit("t.site")  # disarmed after 2 firings
        assert FAILPOINTS.hits("t.site") == 2

    def test_key_filter(self):
        FAILPOINTS.activate("t.site", key="poison")
        FAILPOINTS.hit("t.site", key="clean")
        FAILPOINTS.hit("t.site")
        with pytest.raises(FaultInjectedError):
            FAILPOINTS.hit("t.site", key="poison")
        assert FAILPOINTS.hits("t.site") == 1

    def test_exception_instance_raised_as_is(self):
        sentinel = RuntimeError("exact instance")
        FAILPOINTS.activate("t.site", exc=sentinel)
        with pytest.raises(RuntimeError) as info:
            FAILPOINTS.hit("t.site")
        assert info.value is sentinel

    def test_delay_only(self):
        FAILPOINTS.activate("t.site", exc=None, delay=0.001)
        FAILPOINTS.hit("t.site")  # sleeps, no raise
        assert FAILPOINTS.hits("t.site") == 1

    def test_context_manager(self):
        with FAILPOINTS.injected("t.site", exc=RuntimeError):
            assert "t.site" in FAILPOINTS.active()
            with pytest.raises(RuntimeError):
                FAILPOINTS.hit("t.site")
        assert "t.site" not in FAILPOINTS.active()


# ----------------------------------------------------------------------
# Submission-time validation
# ----------------------------------------------------------------------
class TestBatchValidation:
    def test_k_must_be_positive(self):
        with pytest.raises(QueryParseError):
            as_batch_query(("john", "schema", 0))
        with pytest.raises(QueryParseError):
            as_batch_query(BatchQuery("john", k=-3))

    def test_k_must_be_integer(self):
        with pytest.raises(QueryParseError):
            as_batch_query(("john", "schema", "many"))

    def test_unknown_method_rejected(self):
        with pytest.raises(QueryParseError):
            as_batch_query(("john", "quantum"))
        with pytest.raises(QueryParseError):
            as_batch_query("john", method="quantum")

    def test_uninterpretable_object_rejected(self):
        with pytest.raises(QueryParseError):
            as_batch_query(object())

    def test_valid_forms_still_coerce(self):
        q = as_batch_query(("john db", "banks", 3))
        assert q == BatchQuery("john db", k=3, method="banks")
        assert as_batch_query("john").method == "schema"

    def test_batch_rejects_before_dispatch(self, engine):
        with pytest.raises(QueryParseError):
            engine.search_many(["fine", ("bad", "schema", 0)])
        snap = engine.metrics.snapshot()
        assert "batch.queries_served" not in snap  # nothing was dispatched
        assert "query.count" not in snap  # not even the valid first query


# ----------------------------------------------------------------------
# Fault isolation in batches (acceptance criterion)
# ----------------------------------------------------------------------
class TestBatchFaultIsolation:
    QUERIES = ["john database", "widom xml", "poison pill", "levy logic"]

    def test_poisoned_query_is_isolated(self, engine):
        """One poisoned query errors; every neighbour still succeeds."""
        baseline = [
            engine.search(q, use_cache=False)
            for q in self.QUERIES
            if q != "poison pill"
        ]
        FAILPOINTS.activate(
            "engine.search", exc=RuntimeError("boom"), key="poison pill"
        )
        outcomes = engine.search_many(self.QUERIES, detailed=True)
        assert len(outcomes) == len(self.QUERIES)
        by_text = {o.query.text: o for o in outcomes}
        poisoned = by_text["poison pill"]
        assert poisoned.status == "error"
        assert isinstance(poisoned.error, SearchExecutionError)
        assert "boom" in str(poisoned.error)
        assert poisoned.results == []
        clean = [by_text[q] for q in self.QUERIES if q != "poison pill"]
        assert all(o.status == "ok" for o in clean)
        for o, expected in zip(clean, baseline):
            assert result_signature(o.results) == result_signature(expected)

    def test_default_run_returns_empty_errorset(self, engine):
        FAILPOINTS.activate(
            "engine.search", exc=RuntimeError("boom"), key="poison pill"
        )
        batches = engine.search_many(self.QUERIES)
        poisoned = batches[self.QUERIES.index("poison pill")]
        assert poisoned == []
        assert poisoned.status == "error"
        assert isinstance(poisoned.error, SearchExecutionError)
        for i, q in enumerate(self.QUERIES):
            if q != "poison pill":
                assert batches[i].status == "ok"

    def test_batch_parity_without_faults(self, engine):
        outcomes = engine.search_many(self.QUERIES, detailed=True)
        assert all(o.status == "ok" for o in outcomes)
        for o in outcomes:
            expected = engine.search(o.query.text, use_cache=False)
            assert result_signature(o.results) == result_signature(expected)

    def test_budgeted_batch_flags_degraded(self, engine):
        engine.search("john database")  # warm
        outcomes = engine.search_many(
            ["john database"], method="banks", timeout_ms=0, detailed=True
        )
        assert outcomes[0].status == "degraded"
        assert outcomes[0].results.degraded

    def test_batch_budget_is_forked_per_query(self, engine):
        """``search_many(budget=b)``: every query ticks its own fork of
        *b* — one shared deadline, per-query caps, *b* itself untouched."""
        now = [100.0]
        budget = QueryBudget(timeout_ms=500.0, max_nodes=1, clock=lambda: now[0])
        seen = []
        real_search = engine.search

        def spy(text, **kwargs):
            seen.append(kwargs["budget"])
            now[0] += 0.1  # each query starts 100 ms after the last
            return real_search(text, **kwargs)

        engine.search = spy
        queries = ["john database", "widom xml", "keyword search"]
        outcomes = engine.search_many(
            queries, method="banks", budget=budget, detailed=True
        )
        assert len(seen) == 3 and len({id(fork) for fork in seen}) == 3
        assert budget not in seen
        # One absolute deadline however late a query starts...
        assert [fork.remaining_ms() for fork in seen] == [budget.remaining_ms()] * 3
        # ...the cap applies to each query, not to the batch...
        assert [o.status for o in outcomes] == ["degraded"] * 3
        assert all(fork.nodes_expanded == 2 for fork in seen)
        # ...and the caller's budget counted none of it.
        assert not budget.exhausted
        assert (budget.nodes_expanded, budget.cns_enumerated) == (0, 0)
        assert budget.candidates_scored == 0

    def test_poisoned_batch_budget_degrades_every_query(self, engine):
        budget = QueryBudget(timeout_ms=60_000)
        budget.poison("client disconnected")
        queries = ["john database", "widom xml", "keyword search"]
        outcomes = engine.search_many(queries, budget=budget, detailed=True)
        assert [o.status for o in outcomes] == ["degraded"] * 3
        for outcome in outcomes:
            assert outcome.results == []
            assert outcome.results.degraded_reason == "client disconnected"
        # Cancelled before it started: nothing was built for any of them.
        assert engine.substrates.builds["tuple_sets"] == 0
        assert engine.metrics.snapshot()["budget.exhausted"] == 3
        # Without a budget, timeout_ms keeps its per-query meaning.
        fresh = engine.search_many(queries, timeout_ms=60_000, detailed=True)
        assert [o.status for o in fresh] == ["ok"] * 3

    def test_repeated_substrate_failures_fail_each_query_once(self):
        """A persistent index-build fault: every query of the batch fails
        with the build error, each after one build attempt, nothing is
        memoised, and the batch after the heal answers."""
        engine = KeywordSearchEngine(tiny_bibliographic_db())
        queries = ["john database", "widom xml", "levy"]
        FAILPOINTS.activate("engine.index_build", exc=RuntimeError("disk gone"))
        outcomes = engine.search_many(queries, detailed=True)
        assert [o.status for o in outcomes] == ["error"] * 3
        assert all(isinstance(o.error, SubstrateBuildError) for o in outcomes)
        assert all("disk gone" in str(o.error) for o in outcomes)
        assert FAILPOINTS.hits("engine.index_build") == len(queries)
        assert "index" not in engine.__dict__
        FAILPOINTS.deactivate("engine.index_build")
        healed = engine.search_many(queries, detailed=True)
        assert [o.status for o in healed] == ["ok"] * 3
        for outcome in healed:
            expected = engine.search(outcome.query.text, use_cache=False)
            assert result_signature(outcome.results) == result_signature(expected)

    def test_executor_stats_count_failures(self, engine):
        FAILPOINTS.activate(
            "engine.search", exc=RuntimeError("boom"), key="poison pill"
        )
        engine.search_many(self.QUERIES)
        snap = engine.metrics.snapshot()
        assert snap["batch.outcome.error"] == 1
        assert snap["batch.outcome.ok"] == len(self.QUERIES) - 1
        assert snap["batch.queries_served"] == len(self.QUERIES)


# ----------------------------------------------------------------------
# XML budgets
# ----------------------------------------------------------------------
class TestXmlBudgets:
    def test_budgeted_slca_is_partial_and_sound(self):
        xml_engine = XmlSearchEngine(slide_conf_tree())
        full = xml_engine.search("keyword mark")
        assert full.status == "ok"
        capped = xml_engine.search("keyword mark", max_expansions=1)
        assert isinstance(capped, ResultSet)
        if capped.degraded:
            full_roots = {r.root for r in full}
            assert all(r.root in full_roots for r in capped)

    def test_algorithms_accept_budget_and_truncate(self):
        lists = [
            [(0, i) for i in range(20)],
            [(0, i, 0) for i in range(20)],
        ]
        full = slca_indexed_lookup_eager(lists)
        budget = QueryBudget(max_candidates=3)
        partial = slca_indexed_lookup_eager(lists, budget=budget)
        assert budget.exhausted
        assert set(partial) <= set(full)
        budget = QueryBudget(max_candidates=3)
        partial_scan = slca_scan_eager(lists, budget=budget)
        assert budget.exhausted
        assert set(partial_scan) <= set(slca_scan_eager(lists))

    def test_unknown_semantics_is_parse_error(self):
        xml_engine = XmlSearchEngine(slide_conf_tree())
        with pytest.raises(QueryParseError):
            xml_engine.search("keyword", semantics="nope")


# ----------------------------------------------------------------------
# CLI flags
# ----------------------------------------------------------------------
class TestCliResilience:
    def test_search_with_budget_flags(self, capsys):
        from repro.cli import main

        code = main(
            [
                "search",
                "john database",
                "--dataset",
                "tiny",
                "--method",
                "banks",
                "--max-expansions",
                "1",
                "--fallback",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "degraded" in out or "no results" in out or "1." in out

    def test_search_timeout_zero_prints_degraded(self, capsys):
        from repro.cli import main

        code = main(
            [
                "search",
                "john database",
                "--dataset",
                "tiny",
                "--timeout-ms",
                "0",
            ]
        )
        assert code == 0
        assert "degraded" in capsys.readouterr().out

    def test_batch_reports_per_query_errors(self, capsys):
        from repro.cli import main

        FAILPOINTS.activate(
            "engine.search", exc=RuntimeError("boom"), key="john database"
        )
        code = main(
            [
                "batch",
                "john database",
                "widom xml",
                "--dataset",
                "tiny",
            ]
        )
        assert code == 1  # partial failure reported in the exit code
        out = capsys.readouterr().out
        assert "ERROR SearchExecutionError" in out
        assert "'widom xml'" in out  # the clean query still printed

    def test_index_only_is_a_cli_method(self, capsys):
        from repro.cli import main

        code = main(
            [
                "search",
                "john database",
                "--dataset",
                "tiny",
                "--method",
                "index_only",
            ]
        )
        assert code == 0
        assert "index-only(" in capsys.readouterr().out
