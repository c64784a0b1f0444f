"""Tests for MILP Steiner trees, probabilistic XML search, and
personalized re-ranking."""

import os
import random
import subprocess
import sys

import pytest

from repro.analysis.personalization import (
    PreferenceProfile,
    personalize,
    result_affinity,
)
from repro.graph.data_graph import DataGraph
from repro.graph_search.mip import steiner_milp, steiner_milp_rooted
from repro.graph_search.steiner import group_steiner_dp
from repro.relational.database import TupleId
from repro.xml_search.probabilistic_xml import ProbabilisticXml
from repro.xmltree.build import element as e
from repro.xmltree.build import text_element as t


def N(i):
    return TupleId("t", i)


def slide30_graph():
    g = DataGraph()
    a, b, c, d, ee = (N(i) for i in range(5))
    g.add_edge(a, b, 5)
    g.add_edge(b, c, 2)
    g.add_edge(b, d, 3)
    g.add_edge(a, c, 6)
    g.add_edge(a, d, 7)
    g.add_edge(a, ee, 10)
    g.add_edge(ee, c, 11)
    return g, [[a, ee], [c], [d]]


class TestMilpSteiner:
    def test_slide30_optimum(self):
        g, groups = slide30_graph()
        tree = steiner_milp(g, groups)
        assert tree is not None
        assert tree.weight == pytest.approx(10.0)

    def test_matches_dp_on_random_graphs(self):
        for seed in (3, 5, 9):
            rng = random.Random(seed)
            g = DataGraph()
            n = 8
            for _ in range(14):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    g.add_edge(N(u), N(v), rng.randint(1, 5))
            nodes = g.nodes
            groups = [
                [nodes[rng.randrange(len(nodes))]],
                [nodes[rng.randrange(len(nodes))],
                 nodes[rng.randrange(len(nodes))]],
            ]
            dp = group_steiner_dp(g, groups)
            mip = steiner_milp(g, groups)
            if dp is None:
                assert mip is None
            else:
                assert mip is not None
                assert mip.weight == pytest.approx(dp.weight)

    def test_rooted_variant(self):
        g, groups = slide30_graph()
        tree = steiner_milp_rooted(g, N(1), groups)  # rooted at b
        assert tree is not None
        assert tree.weight == pytest.approx(10.0)

    def test_empty_group(self):
        g, groups = slide30_graph()
        assert steiner_milp(g, [groups[0], []]) is None

    def test_import_repro_leaves_scipy_unloaded(self):
        """scipy is loaded by the solver's first call, not by ``import
        repro`` (0.5 s and 55 MB of every server and worker start)."""
        script = (
            "import sys, repro\n"
            "assert 'scipy' not in sys.modules and 'numpy' not in sys.modules\n"
            "from repro.graph.data_graph import DataGraph\n"
            "from repro.graph_search.mip import steiner_milp\n"
            "from repro.relational.database import TupleId\n"
            "g = DataGraph()\n"
            "a, b, c = (TupleId('t', i) for i in range(3))\n"
            "g.add_edge(a, b, 2); g.add_edge(b, c, 3)\n"
            "assert abs(steiner_milp(g, [[a], [c]]).weight - 5.0) < 1e-9\n"
            "assert 'scipy' in sys.modules\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr


class TestProbabilisticXml:
    def _doc(self):
        """paper(title=xml, author=widom?) where the author node exists
        with probability 0.5."""
        tree = e(
            "paper",
            t("title", "xml"),
            t("author", "widom"),
        )
        author_dewey = tree.children[1].dewey
        return tree, {author_dewey: 0.5}

    def test_certain_document(self):
        tree, _ = self._doc()
        pxml = ProbabilisticXml(tree)
        assert pxml.result_probability(tree, ["xml", "widom"]) == pytest.approx(1.0)

    def test_uncertain_author_halves_probability(self):
        tree, probs = self._doc()
        pxml = ProbabilisticXml(tree, probs)
        assert pxml.result_probability(tree, ["xml", "widom"]) == pytest.approx(0.5)
        assert pxml.result_probability(tree, ["xml"]) == pytest.approx(1.0)

    def test_two_uncertain_witnesses_combine(self):
        # Two independent 0.5-probability nodes both containing "k":
        # P(at least one survives) = 1 - 0.25 = 0.75.
        tree = e("r", t("a", "k"), t("b", "k"))
        probs = {tree.children[0].dewey: 0.5, tree.children[1].dewey: 0.5}
        pxml = ProbabilisticXml(tree, probs)
        assert pxml.containment_probability(tree, ["k"]) == pytest.approx(0.75)

    def test_existence_probability_chains(self):
        tree = e("r", e("mid", t("leaf", "x")))
        mid = tree.children[0]
        leaf = mid.children[0]
        pxml = ProbabilisticXml(tree, {mid.dewey: 0.5, leaf.dewey: 0.4})
        assert pxml.existence_probability(leaf) == pytest.approx(0.2)

    def test_topk_ranks_by_probability(self):
        tree = e(
            "bib",
            e("paper", t("title", "xml"), t("author", "widom")),
            e("paper", t("title", "xml"), t("author", "widom")),
        )
        # Second paper's author is uncertain.
        uncertain = tree.children[1].children[1].dewey
        pxml = ProbabilisticXml(tree, {uncertain: 0.3})
        results = pxml.topk(["xml", "widom"], k=2)
        assert len(results) == 2
        assert results[0][1] == pytest.approx(1.0)
        assert results[1][1] == pytest.approx(0.3)

    def test_invalid_probability(self):
        tree = e("r", t("a", "k"))
        with pytest.raises(ValueError):
            ProbabilisticXml(tree, {tree.children[0].dewey: 1.5})


class TestPersonalization:
    @pytest.fixture(scope="class")
    def results(self, tiny_db):
        """Equal-relevance results over papers with different topics."""
        from repro.core.results import SearchResult
        from repro.relational.executor import JoinedRow

        out = []
        for pid in (1, 2, 3):  # join / cloud / xml papers
            row = tiny_db.table("paper").row(pid)
            joined = JoinedRow(("n0",), (row,))
            out.append(
                SearchResult(score=1.0, network=f"paper#{pid}", joined=joined)
            )
        return out

    def test_affinity_in_unit_interval(self, results):
        profile = PreferenceProfile()
        profile.prefer_term("cloud", 1.0)
        for result in results:
            assert 0.0 <= result_affinity(result, profile) <= 1.0

    def test_preferred_topic_rises(self, results):
        profile = PreferenceProfile()
        profile.prefer_term("cloud", 1.0)
        reranked = personalize(results, profile, alpha=0.9)
        top_text = " ".join(
            row.text() for row in reranked[0].joined.distinct_rows()
        )
        assert "cloud" in top_text

    def test_alpha_zero_preserves_order(self, results):
        profile = PreferenceProfile()
        profile.prefer_term("cloud", 1.0)
        reranked = personalize(results, profile, alpha=0.0)
        assert [r.network for r in reranked] == [r.network for r in results]

    def test_alpha_validation(self, results):
        with pytest.raises(ValueError):
            personalize(results, PreferenceProfile(), alpha=1.5)

    def test_attribute_preference(self, results):
        profile = PreferenceProfile()
        profile.prefer_attribute("conference", "name", 1.0)
        scores = [result_affinity(r, profile) for r in results]
        assert any(s > 0 for s in scores) or all(s == 0 for s in scores)
