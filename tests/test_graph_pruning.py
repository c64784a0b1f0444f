"""The work the exact graph methods' bounds save, pinned by counters.

The end-to-end ``lib_methods_grid`` workload asks 20 two-keyword
queries of biblio-300.  Here the same pool is rebuilt from the same
dataset and pool seed, and the two exact methods are run with a
counting span instead of a clock:

* the star-bounded Steiner DP returns the unbounded oracle's tree and
  settles at most a quarter of the oracle's nodes in total;
* EASE at ``k=10`` returns the first ten answers of a full enumeration
  and peels at most 40 % of its candidate centers.
"""

from __future__ import annotations

import random
from typing import Dict, List

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.datasets import words
from repro.datasets.bibliographic import generate_bibliographic_db
from repro.graph_search import ease, steiner
from repro.index.text import tokenize

from .test_graph_compact import Counters, DictGraph, group_steiner_dp

#: The workload's pool seed and size.
POOL_SEED = 11
GRID_QUERIES = 20


def grid_queries(db) -> List[str]:
    """The workload's two-keyword pool: alternately an author's last
    name with a topic of their paper, and two topics of one paper."""
    topic_words = set(words.TOPIC_WORDS)
    authors: Dict[int, List[str]] = {}
    for w in db.rows("write"):
        authors.setdefault(w["pid"], []).append(db.table("author").by_key(w["aid"])["name"])
    facts = []
    for paper in db.rows("paper"):
        topics = [t for t in dict.fromkeys(tokenize(paper["title"])) if t in topic_words]
        names = authors.get(paper["pid"], [])
        if len(topics) >= 2 and names:
            facts.append((topics, names))
    rng = random.Random(POOL_SEED)
    pool: List[str] = []
    while len(pool) < GRID_QUERIES:
        topics, names = rng.choice(facts)
        if len(pool) % 2:
            text = " ".join(rng.sample(topics, 2))
        else:
            text = f"{rng.choice(names).split()[1]} {rng.choice(topics)}"
        if text not in pool:
            pool.append(text)
    return pool


@pytest.fixture(scope="module")
def grid():
    db = generate_bibliographic_db(seed=7, n_authors=100, n_conferences=10, n_papers=300)
    engine = KeywordSearchEngine(db)
    groups = [engine.substrates.keyword_groups(q.split()) for q in grid_queries(db)]
    assert all(groups)
    return engine.data_graph, groups


def test_steiner_settles_a_quarter_of_the_unbounded_dp(grid):
    graph, pool = grid
    oracle = DictGraph(graph.ids, graph.edges())
    bounded, unbounded = Counters(), Counters()
    for groups in pool:
        tree = steiner.group_steiner_dp(graph, groups, span=bounded)
        assert tree is not None
        assert tree == group_steiner_dp(oracle, groups, span=unbounded)
    assert bounded.counts["masks"] == unbounded.counts["masks"] == 3 * len(pool)
    assert bounded.counts["nodes_settled"] <= 0.25 * unbounded.counts["nodes_settled"]


def test_ease_peels_at_most_two_fifths_of_the_candidates(grid):
    graph, pool = grid
    span = Counters()
    for groups in pool:
        top = ease.r_radius_steiner_graphs(graph, groups, r=2, k=10, span=span)
        assert top == ease.r_radius_steiner_graphs(graph, groups, r=2)[:10]
    counts = span.counts
    assert counts["centers_peeled"] + counts["centers_skipped"] == counts["centers"]
    assert counts["centers_peeled"] <= 0.4 * counts["centers"]
