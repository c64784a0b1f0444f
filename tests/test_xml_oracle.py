"""SLCA and ELCA from their definitions, against the ?LCA library and
the XML engine.

The oracle shares nothing with :mod:`repro.xml_search` or
:mod:`repro.xmltree.index`: it reads keyword matches straight off the
generated tree and decides membership by brute force over node sets —

* a node *contains all* when every keyword has a match in its subtree;
* **SLCA**: the LCAs of every combination of one match per keyword,
  minus those with a proper descendant that is such an LCA;
* **ELCA**: a node with, for every keyword, a witness match in its
  subtree that no contains-all node strictly below it (on the path to
  the witness, witness included) claims.

Trees have at most 12 nodes over a four-word alphabet (tags match too),
queries one to three keywords, so every list is small enough to
enumerate and collisions between keywords are the common case.
"""

from __future__ import annotations

from itertools import product

from hypothesis import given, strategies as st

from repro.core.xml_engine import XmlSearchEngine
from repro.resilience.budget import QueryBudget
from repro.xml_search.elca import elca_candidates_verify
from repro.xml_search.slca import (
    slca_indexed_lookup_eager,
    slca_multiway,
    slca_scan_eager,
)
from repro.xmltree.index import XmlKeywordIndex
from repro.xmltree.node import XmlNode

WORDS = ("a", "b", "c", "d")
SEMANTICS = {"slca": "slca", "multiway": "slca", "elca": "elca"}


@st.composite
def trees(draw):
    """A labelled tree: node ``i`` hangs under an earlier node."""
    n = draw(st.integers(min_value=1, max_value=12))
    nodes = []
    for i in range(n):
        tag = draw(st.sampled_from(("n", "n", "a", "b")))
        words = draw(st.lists(st.sampled_from(WORDS), max_size=2))
        node = XmlNode(tag, " ".join(words) or None)
        if i:
            nodes[draw(st.integers(min_value=0, max_value=i - 1))].add_child(node)
        nodes.append(node)
    return nodes[0]


queries = st.lists(st.sampled_from(WORDS), min_size=1, max_size=3, unique=True)


def _under(ancestor, node):
    """*node* lies in the subtree of *ancestor* (itself included)."""
    return node[: len(ancestor)] == ancestor


def _definitions(root, keywords):
    """``(slca, elca)`` Dewey lists in document order, by brute force."""
    deweys = [node.dewey for node in root.descendants(include_self=True)]
    matches = [
        [
            node.dewey
            for node in root.descendants(include_self=True)
            if keyword in (node.value or "").split() or keyword == node.tag
        ]
        for keyword in keywords
    ]

    def lca(combo):
        return max(
            (d for d in deweys if all(_under(d, m) for m in combo)), key=len
        )

    lcas = {lca(combo) for combo in product(*matches)}
    slca = [
        u for u in lcas if not any(v != u and _under(u, v) for v in lcas)
    ]
    contains_all = {
        d for d in deweys if all(any(_under(d, m) for m in ms) for ms in matches)
    }

    def claimed(u, witness):
        return any(
            x != u and _under(u, x) and _under(x, witness) for x in contains_all
        )

    elca = [
        u
        for u in deweys
        if all(
            any(_under(u, m) and not claimed(u, m) for m in ms) for ms in matches
        )
    ]
    return sorted(slca), sorted(elca)


@given(root=trees(), keywords=queries)
def test_library_algorithms_meet_the_definitions(root, keywords):
    slca, elca = _definitions(root, keywords)
    lists = XmlKeywordIndex(root).match_lists(keywords)
    assert slca_indexed_lookup_eager(lists) == slca
    assert slca_multiway(lists) == slca
    assert slca_scan_eager(lists) == slca
    assert sorted(elca_candidates_verify(lists)) == elca


@given(root=trees(), keywords=queries, k=st.sampled_from((None, 1, 3)))
def test_engine_meets_the_definitions(root, keywords, k):
    want = dict(zip(("slca", "elca"), _definitions(root, keywords)))
    engine = XmlSearchEngine(root)
    text = " ".join(keywords)
    for semantics, definition in SEMANTICS.items():
        full = engine.search(text, semantics=semantics)
        assert sorted(r.root for r in full) == want[definition]
        assert [(-r.score, r.root) for r in full] == sorted(
            (-r.score, r.root) for r in full
        )
        assert not full.degraded and full.method == semantics
        cut = engine.search(text, k=k, semantics=semantics)
        assert [r.root for r in cut] == [r.root for r in full][:k]
        traced = engine.search(text, k=k, semantics=semantics, trace=True)
        assert [(r.score, r.root) for r in traced] == [(r.score, r.root) for r in cut]
        assert traced.trace.span_names()[0] == "search"


@given(root=trees(), keywords=queries, cap=st.integers(min_value=1, max_value=4))
def test_a_budgeted_answer_is_a_subset_of_the_full_one(root, keywords, cap):
    engine = XmlSearchEngine(root)
    text = " ".join(keywords)
    for semantics in SEMANTICS:
        full = {r.root: r.score for r in engine.search(text, semantics=semantics)}
        budget = QueryBudget(max_candidates=cap)
        capped = engine.search(text, semantics=semantics, budget=budget)
        assert capped.degraded == budget.exhausted
        assert (capped.degraded_reason is not None) == capped.degraded
        for r in capped:
            assert full.get(r.root) == r.score, (semantics, r.root)
        if not capped.degraded:
            assert len(capped) == len(full)
