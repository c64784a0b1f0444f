"""Unified structured query front end: DSL, lowering, cache keys, parity.

The tentpole invariant: bare keyword queries stay byte-identical to the
legacy path across every method × backend × shard count, while fielded
queries return only predicate-satisfying rows.  The cache-key sweep is
pinned in both directions — texts that canonicalise identically share
one entry, structurally different queries never collide.
"""

from __future__ import annotations

import math
import os

import pytest
from hypothesis import given, strategies as st

from repro.ambiguity.autocomplete import suggest_answers
from repro.ambiguity.spelling import NoisyChannelCorrector
from repro.core.engine import KeywordSearchEngine
from repro.datasets.bibliographic import (
    generate_bibliographic_db,
    tiny_bibliographic_db,
)
from repro.index.text import tokenize
from repro.query import (
    FieldPredicate,
    QueryResponse,
    StructuredQuery,
    Term,
    compile_query,
    execute_pipeline,
    parse_query,
)
from repro.query.compiler import resolve_field
from repro.query.parser import MAX_GROUPS, PhraseConstraint
from repro.query.pipeline import highlight_snippet
from repro.resilience.budget import QueryBudget
from repro.resilience.errors import BudgetExceededError, QueryParseError
from repro.resilience.failpoints import FAILPOINTS
from repro.sharding import ShardedSearchEngine
from repro.storage import BACKEND_NAMES

METHODS = [
    "schema",
    "banks",
    "banks2",
    "steiner",
    "distinct_root",
    "ease",
    "index_only",
]
ALL_BACKENDS = list(BACKEND_NAMES)
PARITY_QUERY = "database keyword"


def _signature(results):
    return [(r.score, r.network, r.tuple_ids()) for r in results]


def _result_rows(results):
    for result in results:
        for row in result.joined.distinct_rows():
            yield row


@pytest.fixture(scope="module")
def biblio_db():
    return generate_bibliographic_db(
        n_authors=20, n_conferences=4, n_papers=40, seed=7
    )


@pytest.fixture(scope="module")
def engine(biblio_db):
    return KeywordSearchEngine(biblio_db)


@pytest.fixture(autouse=True)
def _clear_failpoints():
    yield
    FAILPOINTS.clear()


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
class TestParser:
    @pytest.mark.parametrize(
        "text",
        [
            "database keyword",
            "  Database   KEYWORD  ",
            "john (database)",
            "time: 10",
            "x:",
            ":weird",
            "and or not",  # lowercase words, not operators
        ],
    )
    def test_bare_text_tokenizes_like_legacy(self, text):
        query = parse_query(text)
        assert query.is_bare
        assert query.bare_keywords() == tokenize(text)

    def test_fielded_eq(self):
        query = parse_query("author:smith database")
        assert not query.is_bare
        assert query.predicates == (
            FieldPredicate(field="author", op="eq", value="smith"),
        )
        assert [t.token for g in query.groups for t in g] == ["database"]

    def test_range_and_open_range(self):
        closed = parse_query("year:2008..2012").predicates[0]
        assert (closed.op, closed.lo, closed.hi) == ("range", 2008.0, 2012.0)
        left_open = parse_query("year:..2012").predicates[0]
        assert (left_open.lo, left_open.hi) == (None, 2012.0)
        right_open = parse_query("year:2008..").predicates[0]
        assert (right_open.lo, right_open.hi) == (2008.0, None)

    def test_bad_range_raises(self):
        with pytest.raises(QueryParseError):
            parse_query("year:bad..range")

    def test_phrase_and_weight(self):
        query = parse_query('"query processing"^2 database')
        assert query.phrases == (
            PhraseConstraint(tokens=("query", "processing"), weight=2.0),
        )
        # Phrase tokens also join the keyword groups so CN machinery
        # can find candidate rows to post-filter.
        tokens = {t.token for g in query.groups for t in g}
        assert {"query", "processing", "database"} <= tokens
        assert parse_query("database^3").groups[0][0].weight == 3.0

    @pytest.mark.parametrize(
        "text, token",
        [
            ("data^inf", "'inf'"),
            ("data^1e400 xml", "'1e400'"),  # overflows to inf
            ("data^nan", "'nan'"),
            ("x^nan", "'nan'"),
            ('"a b"^inf', "'inf'"),
            ("year:nan..inf", "year:nan..inf"),
            ("year:..-inf", "year:..-inf"),
        ],
    )
    def test_non_finite_numbers_are_parse_errors(self, text, token):
        with pytest.raises(QueryParseError, match="finite") as excinfo:
            parse_query(text)
        assert token in str(excinfo.value)

    @given(
        st.one_of(
            st.floats(),
            st.sampled_from(["inf", "-inf", "nan", "NaN", "Infinity", "1e400", "-1e400"]),
        ).map(str)
    )
    def test_every_parsed_number_is_finite(self, number):
        """Any float spelling as a weight or a range bound parses to a
        finite number or is refused with a QueryParseError."""
        for text in (f"data^{number}", f'"a b"^{number}', f"year:{number}..",
                     f"year:..{number}", f"year:{number}..{number}"):
            try:
                query = parse_query(text)
            except QueryParseError:
                continue
            weights = [t.weight for g in query.groups for t in g]
            weights += [p.weight for p in query.phrases]
            bounds = [b for p in query.predicates for b in (p.lo, p.hi) if b is not None]
            assert all(math.isfinite(w) and w > 0 for w in weights), text
            assert all(math.isfinite(b) for b in bounds), text

    def test_unterminated_phrase_raises(self):
        with pytest.raises(QueryParseError):
            parse_query('"never closed')

    def test_not_and_or(self):
        query = parse_query("database -xml")
        assert query.excluded == ("xml",)
        query = parse_query("xml OR spatial")
        assert len(query.groups) == 1
        assert {t.token for t in query.groups[0]} == {"xml", "spatial"}

    def test_cnf_distribution(self):
        # (a AND b) OR c  =  (a OR c) AND (b OR c)
        query = parse_query("(alpha beta) OR gamma")
        groups = [frozenset(t.token for t in g) for g in query.groups]
        assert frozenset({"alpha", "gamma"}) in groups
        assert frozenset({"beta", "gamma"}) in groups

    def test_cnf_explosion_capped(self):
        clauses = " OR ".join(
            "(" + " ".join(f"w{i}x{j}" for j in range(4)) + ")" for i in range(8)
        )
        with pytest.raises(QueryParseError):
            parse_query(clauses)
        assert MAX_GROUPS == 64

    def test_canonical_roundtrip(self):
        texts = [
            "author:smith year:2008.. database^2 -noise",
            '(xml OR spatial) "query processing"',
            'venue:"very large databases"',
        ]
        for text in texts:
            query = parse_query(text)
            again = parse_query(query.canonical())
            assert again.cache_key() == query.cache_key(), text

    def test_cache_key_ignores_raw_and_cleaned_from(self):
        a = parse_query("database   keyword")
        b = parse_query("database keyword")
        assert a.raw != b.raw
        assert a.cache_key() == b.cache_key()
        rewritten = b.with_bare_keywords(["database", "keyword"])
        assert rewritten.cache_key() == b.cache_key()


# ----------------------------------------------------------------------
# Cache key sweep (satellite: rekey on canonical StructuredQuery)
# ----------------------------------------------------------------------
class TestCacheKey:
    def test_equivalent_texts_share_one_entry(self, engine):
        # Whitespace normalisation and spelling cleaning both land on
        # the same canonical query -> same key (the duplicate-entry
        # direction of the sweep).
        base = engine._query_key(PARITY_QUERY, "schema", 5)
        assert engine._query_key("database    keyword", "schema", 5) == base
        cleaned = engine._parse_canonical("databsae keyword")
        assert cleaned.cleaned_from is not None
        assert engine._query_key("databsae keyword", "schema", 5) == base

    def test_structurally_different_queries_never_collide(self, engine):
        keys = {
            engine._query_key(text, "schema", 5)
            for text in [
                "author smith",       # bare
                "author:smith",       # predicate
                "author^2 smith",     # weighted
                "author -smith",      # exclusion
                '"author smith"',     # phrase
                "author OR smith",    # disjunction
            ]
        }
        assert len(keys) == 6

    def test_key_varies_with_method_and_k(self, engine):
        assert engine._query_key(PARITY_QUERY, "schema", 5) != engine._query_key(
            PARITY_QUERY, "banks", 5
        )
        assert engine._query_key(PARITY_QUERY, "schema", 5) != engine._query_key(
            PARITY_QUERY, "schema", 6
        )

    def test_cached_equivalent_text_is_a_hit(self, biblio_db):
        fresh = KeywordSearchEngine(biblio_db)
        first = fresh.search(PARITY_QUERY, k=5)
        again = fresh.search("database    keyword", k=5)
        assert _signature(first) == _signature(again)
        stats = fresh.cache_stats()["results"]
        assert stats["hits"] >= 1


# ----------------------------------------------------------------------
# Parity gate: methods × backends × shards, cached vs uncached
# ----------------------------------------------------------------------
class TestParityGate:
    @pytest.fixture(scope="class")
    def baseline(self, biblio_db):
        eng = KeywordSearchEngine(biblio_db)
        return {
            m: _signature(eng.search(PARITY_QUERY, k=5, method=m))
            for m in METHODS
        }

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_bare_query_byte_identical(
        self, biblio_db, baseline, backend, n_shards, tmp_path_factory
    ):
        options = None
        if backend == "disk":
            path = tmp_path_factory.mktemp("parity") / "index.rkws"
            options = {"path": os.fspath(path)}
        if n_shards == 1:
            front = KeywordSearchEngine(
                biblio_db, backend=backend, backend_options=options
            )
        else:
            front = ShardedSearchEngine(
                biblio_db,
                n_shards=n_shards,
                backend=backend,
                backend_options=options,
            )
        for m in METHODS:
            uncached = _signature(
                front.search(PARITY_QUERY, k=5, method=m, use_cache=False)
            )
            cached = _signature(front.search(PARITY_QUERY, k=5, method=m))
            recached = _signature(front.search(PARITY_QUERY, k=5, method=m))
            assert uncached == baseline[m], (backend, n_shards, m)
            assert cached == uncached, (backend, n_shards, m)
            assert recached == cached, (backend, n_shards, m)
        if hasattr(front, "close"):
            front.close()

    @pytest.mark.parametrize("method", METHODS)
    def test_structured_sharded_matches_single(self, biblio_db, method):
        years = sorted({r.get("year") for r in biblio_db.table("conference").rows()})
        text = f"year:{years[0]}..{years[1]} database"
        single = KeywordSearchEngine(biblio_db)
        with ShardedSearchEngine(biblio_db, n_shards=4) as sharded:
            assert _signature(
                sharded.search(text, k=5, method=method)
            ) == _signature(single.search(text, k=5, method=method))


# ----------------------------------------------------------------------
# Lowering semantics
# ----------------------------------------------------------------------
class TestLowering:
    @pytest.mark.parametrize("method", METHODS)
    def test_range_predicate_filters_rows(self, engine, biblio_db, method):
        years = sorted({r.get("year") for r in biblio_db.table("conference").rows()})
        lo, hi = years[0], years[1]
        results = engine.search(
            f"year:{lo}..{hi} database", k=10, method=method, use_cache=False
        )
        seen_conference = False
        for row in _result_rows(results):
            if row.table.name == "conference":
                seen_conference = True
                assert lo <= row.get("year") <= hi
        # At least one method variant should join through conference;
        # the assertion above is the contract for all of them.
        if method == "schema":
            assert results

    @pytest.mark.parametrize("method", METHODS)
    def test_eq_predicate_filters_rows(self, engine, biblio_db, method):
        name_token = next(
            iter(tokenize(next(biblio_db.table("author").rows()).get("name")))
        )
        results = engine.search(
            f"name:{name_token} database", k=10, method=method, use_cache=False
        )
        for row in _result_rows(results):
            if row.table.name == "author":
                assert name_token in tokenize(row.get("name"))

    def test_predicate_only_query_returns_matching_rows(self, engine, biblio_db):
        years = sorted({r.get("year") for r in biblio_db.table("conference").rows()})
        lo, hi = years[0], years[0]
        results = engine.search(f"year:{lo}..{hi}", k=50)
        expected = {
            rowid
            for rowid, row in enumerate(biblio_db.table("conference").rows())
            if lo <= row.get("year") <= hi
        }
        got = set()
        for result in results:
            ids = result.tuple_ids()
            assert len(ids) == 1 and ids[0].table == "conference"
            assert result.network == "filter(conference)"
            got.add(ids[0].rowid)
        assert got == expected

    def test_not_excludes_matching_tuples(self, engine):
        results = engine.search("database -xml", k=10, use_cache=False)
        assert results
        for row in _result_rows(results):
            assert "xml" not in tokenize(row.text())

    def test_or_branches_union(self, engine):
        results = engine.search("xml OR spatial", k=10, use_cache=False)
        assert results
        for result in results:
            texts = [tokenize(r.text()) for r in result.joined.distinct_rows()]
            assert any("xml" in t or "spatial" in t for t in texts)

    def test_weights_scale_scores(self, engine):
        bare = engine.search(PARITY_QUERY, k=3, use_cache=False)
        boosted = engine.search("database^4 keyword", k=3, use_cache=False)
        assert boosted and bare
        assert boosted[0].score > bare[0].score

    def test_phrase_requires_consecutive_run(self, engine, biblio_db):
        # Take an adjacent token pair that exists in some row, assert
        # every phrase answer exhibits the run; the reversed pair (if
        # absent from the corpus) must return nothing.
        pair = None
        for table in biblio_db.tables.values():
            for row in table.rows():
                toks = tokenize(row.text())
                if len(toks) >= 2:
                    pair = (toks[0], toks[1])
                    break
            if pair:
                break
        assert pair is not None
        results = engine.search(f'"{pair[0]} {pair[1]}"', k=5, use_cache=False)
        assert results

        def has_run(row, a, b):
            toks = tokenize(row.text())
            return any(
                toks[i] == a and toks[i + 1] == b for i in range(len(toks) - 1)
            )

        for result in results:
            assert any(
                has_run(row, pair[0], pair[1])
                for row in result.joined.distinct_rows()
            )

    def test_unknown_field_lists_addressable_names(self, engine):
        with pytest.raises(QueryParseError) as err:
            engine.search("nosuchfield:x", use_cache=False)
        assert "addressable" in str(err.value)

    def test_resolve_field_prefers_columns(self, biblio_db):
        # "year" is a conference column; "author" only a table name.
        assert resolve_field(biblio_db, "year") == [("conference", "year")]
        assert resolve_field(biblio_db, "author") == [("author", None)]

    def test_compile_reports_branches_and_weights(self, engine):
        compiled = compile_query(engine, parse_query("(xml OR spatial) database^2"))
        assert len(compiled.branches) == 2
        assert compiled.weights == {"database": 2.0}


# ----------------------------------------------------------------------
# Budgeted type-ahead (satellite: QueryBudget through Tastier)
# ----------------------------------------------------------------------
class TestBudgetedTastier:
    def test_unbudgeted_unchanged(self, engine):
        full = suggest_answers(engine, ["dat", "key"], k=5)
        assert full.answers and not full.degraded and full.reason is None

    def test_exhaustion_returns_partial_not_raise(self, engine):
        tight = suggest_answers(engine, ["dat", "key"], k=5, max_expansions=1)
        assert tight.degraded
        assert "budget" in (tight.reason or "")

    def test_grow_stage_partial_keeps_answers(self, engine):
        full = suggest_answers(engine, ["dat", "key"], k=50)
        # Allow the scan, cap the per-candidate grow loop after one node.
        budget = QueryBudget(max_nodes=1)
        partial = suggest_answers(engine, ["dat", "key"], k=50, budget=budget)
        assert partial.degraded
        assert len(partial.answers) < len(full.answers)
        assert set(partial.answers) <= set(full.answers)

    def test_failpoint_scan_degrades(self, engine):
        FAILPOINTS.activate(
            "tastier.scan", exc=BudgetExceededError("injected scan fault")
        )
        result = suggest_answers(engine, ["dat"], k=5)
        assert result.degraded
        assert "injected" in result.reason
        assert result.answers == []


# ----------------------------------------------------------------------
# Noisy-channel prior (satellite: docstring/code agreement)
# ----------------------------------------------------------------------
class TestNoisyChannelPrior:
    def test_prior_formula_pinned(self):
        corrector = NoisyChannelCorrector({"alpha": 3, "beta": 1})
        total, vocab = 4, 2
        # (freq + 1) / (total + V + 1): the +1 reserves mass for the
        # unseen-token pseudo-entry.  This is the behaviour the ranking
        # fixtures were tuned against; the docstring now matches it.
        assert corrector.prior("alpha") == pytest.approx(4 / (total + vocab + 1))
        assert corrector.prior("beta") == pytest.approx(2 / (total + vocab + 1))
        assert corrector.prior("unseen") == pytest.approx(1 / (total + vocab + 1))

    def test_prior_sums_to_at_most_one_over_vocab_plus_unseen(self):
        corrector = NoisyChannelCorrector({"a": 5, "b": 2, "c": 1})
        mass = sum(corrector.prior(t) for t in ["a", "b", "c", "zzz"])
        assert mass == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Response pipeline
# ----------------------------------------------------------------------
class TestPipeline:
    def test_bare_pipeline_matches_plain_search(self, engine):
        response = execute_pipeline(engine, PARITY_QUERY, k=5)
        assert isinstance(response, QueryResponse)
        assert _signature(response.results) == _signature(
            engine.search(PARITY_QUERY, k=5)
        )
        payload = response.to_dict()
        assert payload["query"]["canonical"] == PARITY_QUERY
        assert "rewrites" not in payload
        assert "facets" not in payload

    def test_spelling_rewrite_reported(self, engine):
        response = execute_pipeline(engine, "databsae keyword", k=3, expand="spelling")
        kinds = [r["kind"] for r in response.rewrites]
        assert kinds == ["spelling"]
        assert response.rewrites[0]["to"] == "database keyword"

    def test_synonyms_widen_eq_predicates(self, engine, biblio_db):
        row = next(biblio_db.table("conference").rows())
        value = tokenize(row.get("name"))[0]
        response = execute_pipeline(
            engine, f"name:{value} database", k=5, expand="synonyms"
        )
        widened = [p for p in response.query.predicates if p.alternatives]
        # similar_values may legitimately find nothing on tiny data;
        # when it does, the rewrite must be reported symmetrically.
        assert bool(widened) == bool(response.rewrites)

    def test_unknown_expansion_rejected(self, engine):
        with pytest.raises(QueryParseError):
            execute_pipeline(engine, PARITY_QUERY, expand="bogus")

    def test_facets_cover_result_tables(self, engine):
        response = execute_pipeline(engine, PARITY_QUERY, k=5, facets=True)
        assert response.facets
        tables = {r.table.name for r in _result_rows(response.results)}
        facet_tables = {attr.split(".", 1)[0] for attr in response.facets}
        assert facet_tables <= tables
        for entries in response.facets.values():
            assert all(entry["count"] >= 1 for entry in entries)

    def test_explicit_facet_attribute(self, engine):
        response = execute_pipeline(
            engine, PARITY_QUERY, k=5, facets="conference.year"
        )
        assert set(response.facets) <= {"conference.year"}

    def test_numeric_facets_bucket(self, engine):
        years = sorted(
            {r.get("year") for r in engine.db.table("conference").rows()}
        )
        response = execute_pipeline(
            engine, f"year:{years[0]}..{years[-1]}", k=50, facets="conference.year"
        )
        entries = response.facets["conference.year"]
        assert sum(e["count"] for e in entries) == len(
            list(response.results)
        )
        assert all("lo" in e and "hi" in e for e in entries)

    def test_highlights_align_and_mark(self, engine):
        response = execute_pipeline(engine, PARITY_QUERY, k=4, highlight=True)
        assert len(response.highlights) == len(list(response.results))
        assert any("**" in h["snippet"] for h in response.highlights)

    def test_highlight_snippet_window(self):
        text = " ".join(f"w{i}" for i in range(30)) + " target match here"
        snippet, matches = highlight_snippet(text, ["target", "match"], window=5)
        assert matches == 2
        assert "**target** **match**" in snippet
        assert snippet.startswith("… ")

    def test_pipeline_over_sharded_front(self, biblio_db):
        with ShardedSearchEngine(biblio_db, n_shards=2) as sharded:
            response = execute_pipeline(
                sharded, PARITY_QUERY, k=3, facets=True, highlight=True
            )
            assert response.facets and response.highlights
            assert _signature(response.results) == _signature(
                sharded.search(PARITY_QUERY, k=3)
            )


# ----------------------------------------------------------------------
# Misc engine surface
# ----------------------------------------------------------------------
class TestEngineSurface:
    def test_search_structured_entry(self, engine):
        query = engine._parse_canonical("author:john")
        direct = engine.search(query, k=5)
        via_text = engine.search("author:john", k=5)
        assert _signature(direct) == _signature(via_text)

    def test_parse_cache_cleared_on_mutation(self, biblio_db):
        fresh = KeywordSearchEngine(tiny_bibliographic_db())
        fresh.search("john database", k=3)
        assert len(fresh._parse_cache) > 0
        fresh.db.insert(
            "author", aid=9000, name="zz cache probe", affiliation="x"
        )
        fresh.search("john database", k=3)  # triggers refresh()
        # The vocabulary changed; stale cleaned parses must be gone
        # (re-parsed entries may repopulate the cache afterwards).
        assert fresh.db.data_version == fresh._served_version

    def test_span_tags_carry_canonical_query(self, biblio_db):
        fresh = KeywordSearchEngine(biblio_db, trace=True)
        results = fresh.search("author:john database", k=3, use_cache=False)
        root = results.trace.root
        assert root.tags["query"] == "database author:john"
