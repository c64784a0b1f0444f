"""One engine contract: every kind ``build_engine`` returns, bare or
wrapped in a :class:`DurableEngine`, answers, batches, refreshes, warms
and closes the same way — there is one query front end, so the kinds
can differ only in how a rung executes, never in what comes back.  The
front-end clauses (validation, trace, budgets, profiler, metric names)
hold for :class:`XmlSearchEngine` too: it is the third executor behind
the same :class:`~repro.core.frontend.QueryFrontEnd`."""

from __future__ import annotations

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.core.factory import build_engine
from repro.core.xml_engine import XmlSearchEngine
from repro.datasets.bibliographic import tiny_bibliographic_db
from repro.datasets.xml_corpora import generate_bib_xml
from repro.durability import DurableEngine
from repro.query.parser import parse_query
from repro.resilience.budget import QueryBudget
from repro.resilience.degradation import KNOWN_METHODS
from repro.resilience.errors import QueryParseError

#: ``build_engine`` options per kind; ``durable-*`` wrap the same engine.
KINDS = {"default": {}, "shards-1": {"shards": 1}, "shards-4": {"shards": 4}}
KINDS.update({f"durable-{name}": options for name, options in list(KINDS.items())})

QUERIES = {
    "bare": "widom xml",
    "fielded": "author:widom xml",
    "or-branch": "xml AND (search OR query)",
    "phrase": '"keyword search" xml',
}

#: search() knobs beyond (text, k, method); generous limits, so no kind
#: may answer differently for having split the budget across shards.
KNOBS = [
    {},
    {"use_cache": False},
    {"timeout_ms": 60_000.0},
    {"max_expansions": 1_000_000, "use_cache": False},
    {"fallback": True},
    {"fallback": True, "timeout_ms": 60_000.0},
]


@pytest.fixture(params=list(KINDS))
def kind(request, tmp_path):
    """``(front, engine)``: what callers search through, and the engine."""
    engine = build_engine(tiny_bibliographic_db(), **KINDS[request.param])
    front = engine
    if request.param.startswith("durable-"):
        front = DurableEngine(engine, str(tmp_path))
    yield front, engine
    front.close()
    engine.close()


@pytest.fixture(scope="module")
def expected():
    """The plain single engine's answer to every (query, method, knobs)."""
    engine = build_engine(tiny_bibliographic_db())
    return {
        (name, method, i): engine.search(text, k=5, method=method, **knobs).to_dict()
        for name, text in QUERIES.items()
        for method in KNOWN_METHODS
        for i, knobs in enumerate(KNOBS)
    }


def test_identical_answers(kind, expected):
    front, _ = kind
    for (name, method, i), want in expected.items():
        got = front.search(QUERIES[name], k=5, method=method, **KNOBS[i])
        assert got.to_dict() == want, (name, method, KNOBS[i])
    assert any(want["count"] for want in expected.values())


def test_parsed_query_and_caller_budget(kind):
    front, _ = kind
    for text in QUERIES.values():
        want = front.search(text, k=5).to_dict()
        assert front.search(parse_query(text), k=5).to_dict() == want
        budget = QueryBudget(timeout_ms=60_000.0)
        assert front.search(text, k=5, budget=budget).to_dict() == want
        assert not budget.exhausted


def test_search_many_equals_sequential_search(kind):
    front, _ = kind
    batch = [("widom xml", "schema"), ("widom xml", "banks"), "author:widom xml"]
    got = front.search_many(batch, k=5)
    want = [
        front.search("widom xml", k=5),
        front.search("widom xml", k=5, method="banks"),
        front.search("author:widom xml", k=5),
    ]
    assert [g.to_dict() for g in got] == [w.to_dict() for w in want]
    # Under one caller budget (each query ticks a fork of it) too.
    budget = QueryBudget(timeout_ms=60_000.0)
    under = front.search_many(batch, k=5, budget=budget)
    assert [g.to_dict() for g in under] == [w.to_dict() for w in want]
    assert not budget.exhausted and len(budget._forks) == len(batch)


def test_refresh_makes_an_insert_findable(kind):
    front, engine = kind
    assert front.search("zanzibar", k=5) == []
    engine.db.insert("author", aid=9001, name="zanzibar unique", affiliation=None)
    engine.refresh()
    for method in ("schema", "index_only", "banks"):
        assert front.search("zanzibar", k=5, method=method), method


def test_unknown_method_is_a_parse_error(kind):
    front, _ = kind
    with pytest.raises(QueryParseError, match="unknown method 'quantum'"):
        front.search("widom", method="quantum")


#: Not a positive ``int``: each died differently before the shared check
#: (``IndexError`` in the top-k heap, a wrong-length answer, ``TypeError``).
BAD_K = (0, -1, 2.5, "3", True)


def test_bad_k_is_a_parse_error_before_any_work(kind):
    front, engine = kind
    for method in KNOWN_METHODS:
        for bad in BAD_K:
            with pytest.raises(QueryParseError, match="k must be a positive integer"):
                front.search("widom xml", k=bad, method=method)
            with pytest.raises(QueryParseError, match="k must be a positive integer"):
                front.search_many(["widom xml"], k=bad, method=method)
    with pytest.raises(QueryParseError, match="k must be a positive integer"):
        front.search("widom xml", k=None)
    assert "index" not in engine.__dict__


def test_warm_builds_the_index_and_close_twice_is_harmless(kind):
    front, engine = kind
    assert "index" not in engine.__dict__
    engine.warm()
    assert "index" in engine.__dict__
    assert engine.metrics is not None and engine.db is not None
    for _ in range(2):
        front.close()
        engine.close()
    assert "index" not in engine.__dict__


def test_cached_answer_serves_a_search_hit_and_computes_nothing(kind):
    """``cached_answer`` is the search path's hit and nothing else: the
    same answer, the same charge, None wherever a search would compute."""
    front, engine = kind
    text = "widom xml"
    assert front.cached_answer(text, 5, "schema", None) is None  # never parsed
    want = front.search(text, k=5).to_dict()
    assert front.cached_answer(text, 5, "schema", None)().to_dict() == want
    assert front.cached_answer(text, 3, "schema", None) is None
    assert front.cached_answer(text, 5, "banks", None) is None
    budget = QueryBudget(timeout_ms=60_000.0)
    assert front.cached_answer(text, 5, "schema", budget)().to_dict() == want
    assert budget.spent() != (0, 0, 0)  # charged the recorded cost
    capped = QueryBudget(max_cns=1)
    assert front.cached_answer(text, 5, "schema", capped) is None
    assert capped.spent() == (0, 0, 0) and not capped.exhausted
    engine.db.insert("author", aid=9001, name="zanzibar unique", affiliation=None)
    assert front.cached_answer(text, 5, "schema", None) is None  # refresh pending
    engine.refresh()
    assert front.cached_answer(text, 5, "schema", None) is None  # caches dropped


def _moved(before, after):
    """Which counters and histogram counts of a metrics snapshot moved."""
    out = {}
    for name, value in after.items():
        if isinstance(value, dict):
            value, old = value["count"], before.get(name, {}).get("count", 0)
        elif isinstance(value, int) and not name.endswith("_s"):
            old = before.get(name, 0)
        else:
            continue
        if value != old:
            out[name] = value - old
    return out


def test_a_cached_answer_counts_only_once_served(kind):
    """Finding a hit charges the caller's budget and nothing else: the
    engine's counters (queries, hits, the LRU's stats) move only when
    the answer is served, by exactly what a search's hit moves them."""
    front, engine = kind
    text = "widom xml"
    front.search(text, k=5)
    before = engine.metrics.snapshot()
    budget = QueryBudget(timeout_ms=60_000.0)
    serve = front.cached_answer(text, 5, "schema", budget)
    assert serve is not None and budget.spent() != (0, 0, 0)
    assert _moved(before, engine.metrics.snapshot()) == {}
    serve()
    served = engine.metrics.snapshot()
    front.search(text, k=5)
    hit = _moved(served, engine.metrics.snapshot())
    assert _moved(before, served) == hit
    assert sorted(hit.values()) == [1, 1, 1, 1]  # count, latency, 2 hit counters


def test_engines_without_a_result_lru_never_serve_a_cached_answer():
    uncached = KeywordSearchEngine(tiny_bibliographic_db(), enable_caches=False)
    uncached.search("widom xml", k=5)
    assert uncached.cached_answer("widom xml", 5, "schema", None) is None
    xml = XmlSearchEngine(generate_bib_xml(seed=1))
    xml.search(XML_QUERY, k=5)
    assert xml.cached_answer(XML_QUERY, 5, "slca", None) is None


# ----------------------------------------------------------------------
# The XML column: the front-end clauses, on the third executor
# ----------------------------------------------------------------------
XML_SEMANTICS = ("slca", "elca", "multiway")
XML_QUERY = "database query"


@pytest.fixture(scope="module")
def xml():
    return XmlSearchEngine(generate_bib_xml(seed=1))


def _xml_signature(results):
    return (
        [(r.score, r.root, r.semantics) for r in results],
        results.method,
        results.degraded,
        results.degraded_reason,
    )


def test_xml_unknown_semantics_and_bad_k_are_parse_errors():
    engine = XmlSearchEngine(generate_bib_xml(seed=1))
    with pytest.raises(QueryParseError, match="unknown semantics 'quantum'"):
        engine.search(XML_QUERY, semantics="quantum")
    for semantics in XML_SEMANTICS:
        for bad in BAD_K:
            with pytest.raises(QueryParseError, match="k must be a positive integer"):
                engine.search(XML_QUERY, k=bad, semantics=semantics)
    assert "index" not in engine.__dict__
    assert len(engine.search(XML_QUERY, k=None)) > len(engine.search(XML_QUERY, k=3)) == 3


@pytest.mark.parametrize("semantics", XML_SEMANTICS)
def test_xml_trace_never_changes_the_answer(xml, semantics):
    plain = xml.search(XML_QUERY, k=5, semantics=semantics, trace=False)
    traced = xml.search(XML_QUERY, k=5, semantics=semantics, trace=True)
    assert plain and _xml_signature(plain) == _xml_signature(traced)
    assert plain.trace is None
    assert traced.trace.span_names()[:2] == ["search", "cache_lookup"]


@pytest.mark.parametrize("semantics", XML_SEMANTICS)
def test_xml_budget_knobs(xml, semantics):
    full = xml.search(XML_QUERY, semantics=semantics)
    generous = (
        {"timeout_ms": 60_000.0},
        {"max_expansions": 1_000_000},
        {"budget": QueryBudget(timeout_ms=60_000.0)},
    )
    for knobs in generous:
        assert _xml_signature(xml.search(XML_QUERY, semantics=semantics, **knobs)) == (
            _xml_signature(full)
        )
    budget = QueryBudget(max_candidates=1)
    capped = xml.search(XML_QUERY, semantics=semantics, budget=budget)
    assert capped.degraded and budget.exhausted
    assert capped.degraded_reason == budget.reason
    assert {r.root for r in capped} < {r.root for r in full}


def test_xml_profiled_restores_the_trace_flag(xml):
    with xml.profiled() as profiler:
        assert xml.search(XML_QUERY).trace is not None
    assert xml.trace_enabled is False and len(profiler) == 1
    assert xml.search(XML_QUERY).trace is None


def test_xml_metric_names_equal_the_relational_engines():
    def names(engine, text):
        engine.search(text)
        assert engine.search(text, max_expansions=1).degraded
        return {
            name
            for name in engine.metrics.snapshot()
            if name.startswith(("query.", "budget."))
        }

    relational = build_engine(tiny_bibliographic_db())
    xml_names = names(XmlSearchEngine(generate_bib_xml(seed=1)), XML_QUERY)
    assert xml_names == names(relational, "widom xml")
    assert xml_names == {
        "query.count", "query.latency_ms", "query.degraded", "budget.exhausted"
    }
