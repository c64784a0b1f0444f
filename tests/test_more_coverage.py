"""Edge cases and less-travelled paths across modules."""

import pytest

from repro.datasets.words import distinct_zipf_sample, zipf_choice, zipf_weights
from repro.graph.weights import BanksWeighting
from repro.index.inverted import InvertedIndex
from repro.index.qgram import QGramIndex
from repro.index.trie import Trie
from repro.relational.database import Database, TupleId
from repro.relational.executor import JoinedRow
from repro.relational.schema import Column, Schema, TableSchema
from repro.xml_search.describable import balanced_context_split
from repro.xml_search.slca import contains_all, subtree_matches
from repro.xmltree.build import element as e
from repro.xmltree.build import text_element as t


class TestJoinedRowErrors:
    def test_misaligned_aliases_rejected(self, tiny_db):
        row = tiny_db.table("author").row(0)
        with pytest.raises(ValueError):
            JoinedRow(("a", "b"), (row,))

    def test_distinct_rows_dedup(self, tiny_db):
        row = tiny_db.table("author").row(0)
        joined = JoinedRow(("a", "b"), (row, row))
        assert len(joined.distinct_rows()) == 1


class TestWeightsWrappers:
    def test_stateless_wrappers(self, tiny_db):
        paper0 = TupleId("paper", 0)
        write0 = TupleId("write", 0)
        assert BanksWeighting().edge_weight(tiny_db, write0, paper0) >= 1.0
        assert BanksWeighting().node_prestige(tiny_db, paper0) > 0.0

    def test_leaf_prestige_zero(self, tiny_db):
        # cite tuples are referenced by nothing.
        assert BanksWeighting().node_prestige(tiny_db, TupleId("cite", 0)) == 0.0


class TestIndexEdgeCases:
    def test_empty_database_index(self):
        schema = Schema(
            [
                TableSchema(
                    "x",
                    (Column("id", "int"), Column("txt", "str", text=True)),
                    primary_key="id",
                )
            ]
        )
        index = InvertedIndex(Database(schema))
        assert index.document_count == 0
        assert index.vocabulary == []
        assert index.matching_tuples("anything") == []
        assert index.tuples_matching_all([]) == []

    def test_trie_empty_vocab(self):
        trie = Trie([])
        assert len(trie) == 0
        assert trie.prefix_range("a") is None
        assert trie.complete("a") == []
        assert trie.fuzzy_prefix("abc") == []

    def test_qgram_q1(self):
        index = QGramIndex(["ab", "cd"], q=1)
        assert ("ab", 0) in index.lookup("ab")

    def test_qgram_invalid_q(self):
        with pytest.raises(ValueError):
            QGramIndex(["a"], q=0)


class TestSlcaHelpers:
    def test_subtree_matches(self):
        deweys = [(0, 1), (0, 1, 2), (0, 2), (0, 10)]
        assert subtree_matches(deweys, (0, 1)) == [(0, 1), (0, 1, 2)]
        assert subtree_matches(deweys, (0, 3)) == []

    def test_contains_all_root(self):
        lists = [[(0, 1)], [(0, 2)]]
        assert contains_all(lists, (0,))
        assert not contains_all(lists, (0, 1))


class TestBalancedContextSplit:
    def _nodes(self):
        tree = e(
            "root",
            e("a", t("x", "k")),
            e("a", t("x", "k")),
            e("b", t("x", "k")),
            e("c", t("x", "k")),
        )
        return list(tree.children)

    def test_split_respects_budget(self):
        nodes = self._nodes()
        parts = balanced_context_split(nodes, max_clusters=2)
        assert len(parts) <= 2
        total = sum(len(p) for p in parts)
        assert total == len(nodes)

    def test_no_split_needed(self):
        nodes = self._nodes()
        parts = balanced_context_split(nodes, max_clusters=10)
        assert len(parts) == 3  # /root/a, /root/b, /root/c

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            balanced_context_split(self._nodes(), max_clusters=0)


class TestWordPools:
    def test_zipf_weights_decreasing(self):
        weights = zipf_weights(5)
        assert weights == sorted(weights, reverse=True)

    def test_zipf_choice_from_pool(self):
        import random

        rng = random.Random(1)
        pool = ["a", "b", "c"]
        for _ in range(10):
            assert zipf_choice(rng, pool) in pool

    def test_distinct_sample_unique(self):
        import random

        rng = random.Random(1)
        sample = distinct_zipf_sample(rng, ["a", "b", "c", "d"], 3)
        assert len(sample) == len(set(sample)) == 3


class TestDataCloudWeighted:
    def test_result_scores_weighting(self, biblio_db):
        from repro.analysis.clouds import data_cloud

        rows = list(biblio_db.rows("paper"))[:10]
        uniform = dict(
            data_cloud(biblio_db, rows, ["database"], k=20, mode="relevance")
        )
        # Give all weight to the first result: its terms dominate.
        scores = [10.0] + [0.0] * (len(rows) - 1)
        weighted = data_cloud(
            biblio_db, rows, ["database"], k=5,
            mode="relevance", result_scores=scores,
        )
        first_tokens = set()
        from repro.index.text import tokenize

        for col in rows[0].table.schema.text_columns:
            value = rows[0][col]
            if value:
                first_tokens |= set(tokenize(str(value)))
        for term, _ in weighted:
            assert term in first_tokens

    def test_empty_results(self, biblio_db):
        from repro.analysis.clouds import data_cloud

        assert data_cloud(biblio_db, [], ["x"], k=5) == []


class TestXmlEngineIntegration:
    def test_full_pipeline_on_generated_corpus(self):
        from repro import XmlSearchEngine
        from repro.analysis.snippets import snippet_covers_keywords
        from repro.datasets.xml_corpora import generate_bib_xml

        tree = generate_bib_xml(n_confs=5, papers_per_conf=8, seed=21)
        engine = XmlSearchEngine(tree)
        results = engine.search("xml search", k=5)
        if not results:
            pytest.skip("terms absent in this seed")
        for result in results:
            items = engine.snippet(result, "xml search")
            assert items
            returns = engine.return_nodes(result, "xml search")
            assert returns
        clusters = engine.cluster_by_type(results, "xml search")
        assert sum(len(m) for _, _, m in clusters) == len(results)

    def test_search_k_none_returns_all(self):
        from repro import XmlSearchEngine
        from repro.datasets.xml_corpora import slide_conf_tree

        engine = XmlSearchEngine(slide_conf_tree())
        all_results = engine.search("mark")
        limited = engine.search("mark", k=1)
        assert len(all_results) >= len(limited)


class TestFormIndexExpansion:
    def test_expansion_deduplicates(self, tiny_db, tiny_index):
        from repro.forms.generation import generate_forms, generate_skeletons
        from repro.forms.matching import FormIndex
        from repro.relational.schema_graph import SchemaGraph

        skeletons = generate_skeletons(SchemaGraph(tiny_db.schema), max_size=2)
        forms = generate_forms(tiny_db.schema, skeletons)
        index = FormIndex(forms, tiny_index)
        expansions = index.expand_query(["xml", "xml"])
        as_tuples = [tuple(x) for x in expansions]
        assert len(as_tuples) == len(set(as_tuples))
