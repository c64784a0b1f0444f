"""The engines against the algorithm library, called directly.

Every other parity gate compares one engine configuration with another
(cached vs uncached, sharded vs single, traced vs untraced), so a defect
in the lowering all configurations share would pass them all.  Here the
oracle is not an engine: for bare keyword queries drawn from the index
vocabulary, ``engine.search(text, method=m)`` on the single and the
4-shard engine must equal what the library returns when a caller wires
it up by hand —

* ``schema``: ``topk_global_pipeline`` over ``generate_candidate_networks``
  + ``TupleSets`` exactly, and ``topk_naive`` (evaluate everything, then
  cut) as a set of ``(score, tuple ids)`` above the k-th score;
* ``index_only``: ``tuple_score`` over ``db.all_tuple_ids()``, sorted
  ``(-score, tid)``;
* the graph family: ``banks_backward`` / ``banks_bidirectional`` /
  ``group_steiner_dp`` / ``distinct_root_results`` /
  ``r_radius_steiner_graphs`` on ``build_data_graph(db)``, seeded with
  the per-keyword match groups read off the index

— comparing ``(score, network, tuple ids)``.  The only thing shared with
the engine is the query cleaner, which runs before any of this.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.ambiguity.cleaning import QueryCleaner
from repro.core.factory import build_engine
from repro.datasets.bibliographic import (
    generate_bibliographic_db,
    tiny_bibliographic_db,
)
from repro.graph.data_graph import build_data_graph
from repro.graph_search.banks import banks_backward, banks_bidirectional
from repro.graph_search.ease import r_radius_steiner_graphs
from repro.graph_search.semantics import distinct_root_results
from repro.graph_search.steiner import group_steiner_dp
from repro.index.distance import KeywordDistanceIndex
from repro.index.inverted import InvertedIndex
from repro.index.text import tokenize
from repro.relational.database import TupleId
from repro.relational.schema_graph import SchemaGraph
from repro.resilience.degradation import KNOWN_METHODS
from repro.schema_search.candidate_networks import generate_candidate_networks
from repro.schema_search.scoring import tuple_score
from repro.schema_search.topk import topk_global_pipeline, topk_naive
from repro.schema_search.tuple_sets import TupleSets

DATABASES = {
    "tiny": tiny_bibliographic_db,
    "biblio-30/100": lambda: generate_bibliographic_db(
        n_authors=30, n_conferences=5, n_papers=100, seed=7
    ),
}
KS = (1, 3, 10)
MAX_CN_SIZE = 4  # the engines' default
FIXED_QUERIES = {
    "tiny": ["widom xml", "john database", "keyword search", "levy", "xml xml query"],
    "biblio-30/100": ["database query", "xml", "john widom", "query query xml"],
}


class World:
    """One database, the two engines over it, and the library's own
    substrates built beside them (nothing borrowed from an engine)."""

    def __init__(self, db):
        self.db = db
        self.engines = {"single": build_engine(db), "shards-4": build_engine(db, shards=4)}
        self.index = InvertedIndex(db)
        self.schema_graph = SchemaGraph(db.schema)
        self.graph = build_data_graph(db)
        self.dmax = KeywordDistanceIndex(self.graph, self.index).max_distance
        self.cleaner = QueryCleaner(self.index)
        vocabulary = sorted(self.index.vocabulary)
        self.vocabulary = vocabulary
        #: Tokens many tuples carry: queries over them have answers.
        self.frequent = sorted(
            vocabulary, key=lambda t: (-self.index.document_frequency(t), t)
        )[:40]

    def keywords(self, text):
        """The cleaned keyword list the query stands for."""
        tokens = tokenize(text)
        cleaned = [t.lower() for t in self.cleaner.clean(list(tokens)).cleaned_tokens()]
        return cleaned or tokens

    def close(self):
        for engine in self.engines.values():
            engine.close()


@functools.lru_cache(maxsize=None)
def world(name) -> World:
    return World(DATABASES[name]())


@pytest.fixture(scope="module", autouse=True)
def _close_worlds():
    yield
    for name in DATABASES:
        world(name).close()
    world.cache_clear()


# ----------------------------------------------------------------------
# The oracles: (score, network, tuple ids) per answer, best first
# ----------------------------------------------------------------------
def _row_ids(joined):
    return tuple(TupleId(table, rowid) for table, rowid in joined.tuple_ids())


def oracle_schema(w: World, keywords, k):
    tuple_sets = TupleSets(w.db, w.index, keywords)
    cns = generate_candidate_networks(w.schema_graph, tuple_sets, max_size=MAX_CN_SIZE)
    if not cns:
        return [], []

    def run(strategy):
        top = strategy(cns, tuple_sets, w.index, keywords, k=k).results
        return [(score, label, _row_ids(joined)) for score, label, joined in top]

    return run(topk_global_pipeline), run(topk_naive)


def oracle_index_only(w: World, keywords, k):
    scored = [
        (tuple_score(w.index, tid, keywords), tid)
        for tid in w.db.all_tuple_ids()
        if any(w.index.term_frequency(tid, kw) for kw in keywords)
    ]
    scored.sort(key=lambda item: (-item[0], item[1]))
    return [(score, f"index-only({tid.table})", (tid,)) for score, tid in scored[:k]]


def oracle_graph(w: World, keywords, k, method):
    groups = [list(w.index.matching_tuples_view(kw)) for kw in keywords]
    if not all(groups):
        return []  # AND semantics: an unmatched keyword, no answers
    if method in ("banks", "banks2"):
        search = banks_bidirectional if method == "banks2" else banks_backward
        found = [
            (1.0 / (1.0 + t.weight), f"banks-tree(root={t.root})", t.nodes)
            for t in search(w.graph, groups, k=k).trees
        ]
    elif method == "steiner":
        tree = group_steiner_dp(w.graph, groups)
        found = [] if tree is None else [
            (1.0 / (1.0 + tree.weight), f"steiner(weight={tree.weight:.1f})", tree.nodes)
        ]
    elif method == "distinct_root":
        found = [
            (1.0 / (1.0 + a.cost), f"distinct-root(root={a.root})", {a.root, *a.matches})
            for a in distinct_root_results(w.graph, groups, dmax=w.dmax, k=k)
        ]
    else:
        assert method == "ease"
        found = [
            (1.0 / a.size(), f"ease(center={a.center})", a.nodes)
            for a in r_radius_steiner_graphs(w.graph, groups, r=2, k=k)
        ]
    return [(score, network, tuple(sorted(nodes))) for score, network, nodes in found]


def above_kth(answers, k):
    """``(score, tuple ids)`` of the answers no tie at the k-th score can
    displace: everything when fewer than *k* came back."""
    if len(answers) < k:
        return {(score, ids) for score, _, ids in answers}
    kth = answers[-1][0]
    return {(score, ids) for score, _, ids in answers if score > kth}


def check(name, text, k):
    w = world(name)
    keywords = w.keywords(text)
    for method in KNOWN_METHODS:
        naive = None
        if method == "schema":
            want, naive = oracle_schema(w, keywords, k)
        elif method == "index_only":
            want = oracle_index_only(w, keywords, k)
        else:
            want = oracle_graph(w, keywords, k, method)
        for kind, engine in w.engines.items():
            results = engine.search(text, k=k, method=method, use_cache=False)
            where = (name, kind, method, text, k)
            assert not results.degraded, where
            got = [(r.score, r.network, tuple(r.tuple_ids())) for r in results]
            assert got == want, where
            if naive is not None:
                assert above_kth(got, k) == above_kth(naive, k), where


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", list(DATABASES))
def test_fixed_queries_equal_the_library(name):
    answered = 0
    for text in FIXED_QUERIES[name]:
        for k in KS:
            check(name, text, k)
        answered += bool(world(name).engines["single"].search(text, k=3))
    assert answered >= 3  # the comparison is not vacuous


@st.composite
def bare_queries(draw):
    name = draw(st.sampled_from(sorted(DATABASES)))
    w = world(name)
    token = st.one_of(st.sampled_from(w.frequent), st.sampled_from(w.vocabulary))
    tokens = draw(st.lists(token, min_size=1, max_size=3))
    return name, " ".join(tokens), draw(st.sampled_from(KS))


@settings(deadline=None)
@given(bare_queries())
def test_generated_queries_equal_the_library(case):
    check(*case)
