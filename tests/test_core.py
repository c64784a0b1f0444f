"""Integration tests for the facade engines (the end-to-end pipeline)."""

import pytest

from repro import KeywordSearchEngine, Query, XmlSearchEngine
from repro.ambiguity.autocomplete import suggest
from repro.analysis.clouds import refine_terms
from repro.analysis.differentiation import differentiate
from repro.forms.matching import suggest_forms
from repro.index.distance import MAX_DISTANCE
from repro.datasets.xml_corpora import (
    generate_bib_xml,
    slide_auction_tree,
    slide_conf_tree,
)


class TestQuery:
    def test_parse(self):
        q = Query.parse("Keyword-based Search!")
        assert q.keywords == ("keyword", "based", "search")

    def test_with_keywords_tracks_origin(self):
        q = Query.parse("datbase").with_keywords(["database"])
        assert q.was_cleaned
        assert q.cleaned_from == ("datbase",)

    def test_str(self):
        assert str(Query.parse("a b")) == "a b"


class TestRelationalEngine:
    @pytest.fixture(scope="class")
    def engine(self, tiny_db):
        return KeywordSearchEngine(tiny_db)

    def test_schema_search_end_to_end(self, engine):
        results = engine.search("widom xml", k=5)
        assert results
        top = results[0]
        tables = {t.table for t in top.tuple_ids()}
        assert "author" in tables and "paper" in tables

    def test_scores_descending(self, engine):
        results = engine.search("john sigmod", k=5)
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)

    def test_query_cleaning_in_pipeline(self, engine):
        dirty = engine.search("wydom xml", k=5)
        clean = engine.search("widom xml", k=5)
        assert dirty
        assert {r.network for r in dirty} == {r.network for r in clean}

    def test_distinct_root_builds_no_distance_index(self, tiny_db):
        engine = KeywordSearchEngine(tiny_db)
        assert engine.search("widom xml", method="distinct_root", k=3)
        assert "distance_index" not in engine.__dict__
        assert engine.distance_index.max_distance == MAX_DISTANCE

    def test_banks_method(self, engine):
        results = engine.search("widom xml", method="banks", k=3)
        assert results
        assert results[0].network.startswith("banks-tree")

    def test_steiner_method(self, engine):
        results = engine.search("widom xml", method="steiner")
        assert len(results) == 1
        assert "steiner" in results[0].network

    def test_unknown_method(self, engine):
        with pytest.raises(ValueError):
            engine.search("x", method="bogus")

    def test_empty_query(self, engine):
        assert engine.search("", k=3) == []

    def test_no_match_query(self, engine):
        assert engine.search("qqqqqqq zzzzzzz", k=3) == []

    def test_suggest(self, engine):
        assert "sigmod" in suggest(engine, "sig")

    def test_refine_terms(self, engine):
        terms = refine_terms(engine, "xml", k=5)
        assert terms
        assert all(t != "xml" for t, _ in terms)

    def test_differentiate(self, engine):
        results = engine.search("john", k=4)
        table = differentiate(results, budget=2)
        assert len(table) == len(results)
        for features in table.values():
            assert len(features) <= 2

    def test_suggest_forms(self, engine):
        ranked = suggest_forms(engine, "john xml", k=3)
        assert ranked
        form, score = ranked[0]
        assert score > 0

    def test_result_describe(self, engine):
        results = engine.search("widom xml", k=1)
        text = results[0].describe()
        assert "author" in text or "paper" in text


class TestXmlEngine:
    @pytest.fixture(scope="class")
    def engine(self):
        return XmlSearchEngine(slide_conf_tree())

    def test_slca_search(self, engine):
        results = engine.search("keyword mark")
        assert len(results) == 1
        assert results[0].node.tag == "paper"

    def test_elca_superset(self, engine):
        slca = {r.root for r in engine.search("mark sigmod", semantics="slca")}
        elca = {r.root for r in engine.search("mark sigmod", semantics="elca")}
        assert slca <= elca

    def test_multiway_agrees_with_slca(self, engine):
        a = [r.root for r in engine.search("keyword mark", semantics="slca")]
        b = [r.root for r in engine.search("keyword mark", semantics="multiway")]
        assert a == b

    def test_unknown_semantics(self, engine):
        with pytest.raises(ValueError):
            engine.search("x", semantics="bogus")

    def test_missing_keyword(self, engine):
        assert engine.search("mark zebra") == []

    def test_snippet(self, engine):
        result = engine.search("keyword mark")[0]
        items = engine.snippet(result, "keyword mark")
        assert items

    def test_infer_return_type(self, engine):
        ranked = engine.infer_return_type("mark keyword")
        assert ranked
        assert ranked[0][0].endswith("/paper")

    def test_return_nodes(self, engine):
        result = engine.search("keyword mark")[0]
        nodes = engine.return_nodes(result, "keyword mark")
        assert nodes

    def test_cluster_by_type(self):
        tree = generate_bib_xml(n_confs=3, papers_per_conf=4, seed=5)
        engine = XmlSearchEngine(tree)
        results = engine.search("paper")
        clusters = engine.cluster_by_type(results, "paper")
        assert clusters
        paths = [p for p, _, _ in clusters]
        assert len(paths) == len(set(paths))

    def test_cluster_by_role_auctions(self):
        engine = XmlSearchEngine(slide_auction_tree())
        results = engine.search("tom", semantics="slca")
        clusters = engine.cluster_by_role(results, "tom")
        # Tom appears as auctioneer, buyer and seller -> 3 role clusters.
        assert len(clusters) == 3
