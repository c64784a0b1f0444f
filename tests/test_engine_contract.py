"""One engine contract: every kind ``build_engine`` returns, bare or
wrapped in a :class:`DurableEngine`, answers, batches, refreshes, warms
and closes the same way — there is one query front end, so the kinds
can differ only in how a rung executes, never in what comes back."""

from __future__ import annotations

import pytest

from repro.core.factory import build_engine
from repro.datasets.bibliographic import tiny_bibliographic_db
from repro.durability import DurableEngine
from repro.query.parser import parse_query
from repro.resilience.budget import QueryBudget
from repro.resilience.degradation import KNOWN_METHODS

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
    got = front.search_many(batch, k=5, max_workers=3)
    want = [
        front.search("widom xml", k=5),
        front.search("widom xml", k=5, method="banks"),
        front.search("author:widom xml", k=5),
    ]
    assert [g.to_dict() for g in got] == [w.to_dict() for w in want]
    # Under one caller budget (each query ticks a fork of it) too.
    budget = QueryBudget(timeout_ms=60_000.0)
    under = front.search_many(batch, k=5, max_workers=3, budget=budget)
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
    from repro.resilience.errors import QueryParseError

    front, _ = kind
    with pytest.raises(QueryParseError, match="unknown method 'quantum'"):
        front.search("widom", method="quantum")


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
