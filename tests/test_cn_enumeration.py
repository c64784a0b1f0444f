"""Candidate-network enumeration: oracle, definition, budget.

``generate_candidate_networks`` grows only the partial trees that can
still become a CN within ``max_size``.  Three independent checks:

* **differential** — the enumerator it replaced lives on, verbatim, in
  ``tests/cn_reference.py``; on generated keyword sets the two return
  the same list: same length, and per position the same node keys and
  the same edge tuples (so the same node numbering and the same
  ``max_networks`` cut);
* **definitional**, no oracle — every CN is valid, non-degenerate and
  distinct, and up to ``max_size`` 3 the list equals a brute force over
  every labelled tree;
* **budget** — ``cns_enumerated`` is one tick per dequeued tree:
  deterministic, never above the reference's, and under ``max_cns`` the
  partial list sits between the reference's and the full one.
"""

from __future__ import annotations

import os
import subprocess
import sys
from itertools import product
from typing import List, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from repro.index.inverted import InvertedIndex
from repro.query.compiler import FilteredTupleSets, RowFilter
from repro.relational.schema_graph import SchemaGraph
from repro.resilience.budget import QueryBudget
from repro.schema_search.candidate_networks import (
    CandidateNetwork,
    CNNode,
    generate_candidate_networks,
)
from repro.schema_search.tuple_sets import TupleSetKey, TupleSets

from .cn_reference import reference_candidate_networks

NO_MATCH = "zzznomatch"
#: E1's three queries (EXPERIMENTS.md), on the conftest ``biblio_db``.
E1_QUERIES = (["database"], ["database", "john"], ["database", "john", "query"])


class World:
    """A database with what enumeration needs, and a keyword strategy."""

    def __init__(self, db, max_size: int):
        self.db = db
        self.index = InvertedIndex(db)
        self.graph = SchemaGraph(db.schema)
        self.max_size = max_size
        by_frequency = sorted(
            self.index.vocabulary,
            key=lambda t: (-len(self.index.matching_tuples_view(t)), t),
        )
        # The 25 most frequent tokens (three draws in four) share
        # tuples, giving multi-keyword tuple sets and long CN lists; the
        # next 25 give small sets; NO_MATCH (about one draw in twenty)
        # gives the empty answer.
        pool = by_frequency[:25] * 3 + by_frequency[25:50]
        pool += [NO_MATCH] * (len(pool) // 20)
        self.keywords = st.lists(
            st.sampled_from(pool), min_size=1, max_size=4, unique=True
        )

    def tuple_sets(self, keywords: Sequence[str]) -> TupleSets:
        return TupleSets(self.db, self.index, keywords)


@pytest.fixture(scope="module")
def worlds(tiny_db, biblio_db, movie_db):
    # biblio_db carries the self-joining ``cite`` table.  Only the
    # four-paper tiny_db also runs at max_size 6: there the reference
    # takes up to 1.5 s an example, on movies 15 s.
    return {
        "tiny": World(tiny_db, 6),
        "biblio": World(biblio_db, 5),
        "movies": World(movie_db, 5),
    }


def signature(cns: List[CandidateNetwork]):
    return [([node.key for node in cn.nodes], cn.edges) for cn in cns]


def assert_same_list(world: World, tuple_sets, max_size, max_networks) -> None:
    new = generate_candidate_networks(
        world.graph, tuple_sets, max_size=max_size, max_networks=max_networks
    )
    ref = reference_candidate_networks(
        world.graph, tuple_sets, max_size=max_size, max_networks=max_networks
    )
    assert len(new) == len(ref)
    for got, want in zip(signature(new), signature(ref)):
        assert got == want


# ----------------------------------------------------------------------
# (a) Differential against the enumerator this one replaced
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["tiny", "biblio", "movies"])
@settings(deadline=None)
@given(data=st.data())
def test_same_list_as_reference(worlds, name, data):
    world = worlds[name]
    keywords = data.draw(world.keywords)
    max_size = data.draw(st.integers(1, world.max_size))
    max_networks = data.draw(st.sampled_from([None, 1, 3]))
    assert_same_list(world, world.tuple_sets(keywords), max_size, max_networks)


@pytest.mark.parametrize("name", ["tiny", "biblio"])
@settings(deadline=None)
@given(data=st.data())
def test_same_list_through_a_filter_that_empties_a_key(worlds, name, data):
    world = worlds[name]
    base = world.tuple_sets(data.draw(world.keywords))
    keys = base.non_free_keys()
    if not keys:
        return
    # Ban every row of one non-free tuple set: the key disappears from
    # the filtered view and the CN space shrinks with it.
    emptied = data.draw(st.sampled_from(keys))
    filtered = FilteredTupleSets(base, RowFilter({}, set(base.tuple_ids(emptied))))
    assert emptied not in filtered.non_free_keys()
    max_size = data.draw(st.integers(1, min(world.max_size, 5)))
    max_networks = data.draw(st.sampled_from([None, 1, 3]))
    assert_same_list(world, filtered, max_size, max_networks)


def test_widom_fixture_at_every_size(worlds):
    """Slide 28's Q = {widom, xml}, sizes 1-6, every cap."""
    world = worlds["tiny"]
    tuple_sets = world.tuple_sets(["widom", "xml"])
    for max_size in range(1, 7):
        for max_networks in (None, 1, 3):
            assert_same_list(world, tuple_sets, max_size, max_networks)


# ----------------------------------------------------------------------
# (b) The definition, with no oracle
# ----------------------------------------------------------------------
def brute_force_codes(world: World, tuple_sets, max_size: int) -> set:
    """Canonical codes of every valid, non-degenerate CN up to 3 nodes:
    all labelled trees over the option keys, every schema edge per tree
    edge, kept if valid and non-degenerate, deduplicated by code."""
    assert max_size <= 3
    options = [TupleSetKey(t, frozenset()) for t in world.graph.tables]
    options += tuple_sets.non_free_keys()
    shapes = {1: [[]], 2: [[(0, 1)]], 3: [[(c, a), (c, b)] for c, a, b in
                                           ((0, 1, 2), (1, 0, 2), (2, 0, 1))]}
    query = list(tuple_sets.keywords)
    codes = set()
    for size in range(1, max_size + 1):
        for keys in product(options, repeat=size):
            for shape in shapes[size]:
                joins = [
                    world.graph.edges_between(keys[a].table, keys[b].table)
                    for a, b in shape
                ]
                for edges in product(*joins):
                    cn = CandidateNetwork(
                        [CNNode(key) for key in keys],
                        [(a, b, edge) for (a, b), edge in zip(shape, edges)],
                    )
                    if cn.is_valid(query) and not cn.has_degenerate_join():
                        codes.add(cn.canonical_code())
    return codes


@pytest.mark.parametrize("name", ["tiny", "biblio", "movies"])
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_every_cn_meets_the_definition(worlds, name, data):
    world = worlds[name]
    keywords = data.draw(world.keywords)
    max_size = data.draw(st.integers(1, min(world.max_size, 5)))
    tuple_sets = world.tuple_sets(keywords)
    cns = generate_candidate_networks(world.graph, tuple_sets, max_size=max_size)
    codes = [cn.canonical_code() for cn in cns]
    assert len(codes) == len(set(codes))
    for cn in cns:
        assert cn.size <= max_size
        assert cn.is_valid(keywords)
        assert not cn.has_degenerate_join()
    assert [(cn.size, cn.label()) for cn in cns] == sorted(
        (cn.size, cn.label()) for cn in cns
    )
    if max_size <= 3:
        assert set(codes) == brute_force_codes(world, tuple_sets, max_size)


# ----------------------------------------------------------------------
# (c) The budget: one tick per dequeued tree
# ----------------------------------------------------------------------
def dequeued(enumerate_fn, world: World, tuple_sets, max_size: int) -> int:
    budget = QueryBudget()
    enumerate_fn(world.graph, tuple_sets, max_size=max_size, budget=budget)
    assert not budget.exhausted
    return budget.cns_enumerated


@pytest.mark.parametrize("name", ["tiny", "biblio", "movies"])
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_never_more_ticks_than_the_reference(worlds, name, data):
    world = worlds[name]
    tuple_sets = world.tuple_sets(data.draw(world.keywords))
    max_size = data.draw(st.integers(1, min(world.max_size, 5)))
    ticks = dequeued(generate_candidate_networks, world, tuple_sets, max_size)
    assert ticks == dequeued(generate_candidate_networks, world, tuple_sets, max_size)
    assert ticks <= dequeued(reference_candidate_networks, world, tuple_sets, max_size)


def test_strictly_fewer_ticks_on_the_e1_queries(worlds):
    world = worlds["biblio"]
    for keywords in E1_QUERIES:
        tuple_sets = world.tuple_sets(keywords)
        for max_size in (4, 5):
            assert dequeued(
                generate_candidate_networks, world, tuple_sets, max_size
            ) < dequeued(reference_candidate_networks, world, tuple_sets, max_size)


@pytest.mark.parametrize("keywords", E1_QUERIES + (["xml", "keyword"],))
def test_max_cns_returns_between_the_reference_and_the_full_list(
    worlds, keywords
):
    world = worlds["biblio"]
    tuple_sets = world.tuple_sets(keywords)
    full = generate_candidate_networks(world.graph, tuple_sets, max_size=4)
    full_ticks = dequeued(generate_candidate_networks, world, tuple_sets, 4)
    full_codes = [cn.canonical_code() for cn in full]
    for cap in (1, 2, 5, full_ticks - 1, full_ticks, full_ticks + 1, 10 * full_ticks):
        new_budget, ref_budget = QueryBudget(max_cns=cap), QueryBudget(max_cns=cap)
        new = generate_candidate_networks(
            world.graph, tuple_sets, max_size=4, budget=new_budget
        )
        ref = reference_candidate_networks(
            world.graph, tuple_sets, max_size=4, budget=ref_budget
        )
        new_codes = [cn.canonical_code() for cn in new]
        assert set(new_codes) <= set(full_codes)
        assert {cn.canonical_code() for cn in ref} <= set(new_codes)
        assert new_budget.exhausted == (full_ticks > cap)
        if not new_budget.exhausted:
            assert new_codes == full_codes


_TICKS_SCRIPT = """
from repro.datasets.bibliographic import tiny_bibliographic_db
from repro.index.inverted import InvertedIndex
from repro.relational.schema_graph import SchemaGraph
from repro.resilience.budget import QueryBudget
from repro.schema_search.candidate_networks import generate_candidate_networks
from repro.schema_search.tuple_sets import TupleSets

db = tiny_bibliographic_db()
index, graph = InvertedIndex(db), SchemaGraph(db.schema)
for keywords in (["widom", "xml"], ["john", "sigmod"], ["john", "xml", "search"]):
    budget = QueryBudget()
    cns = generate_candidate_networks(
        graph, TupleSets(db, index, keywords), max_size=5, budget=budget
    )
    print(budget.cns_enumerated, [cn.label() for cn in cns])
"""


def test_ticks_do_not_depend_on_the_hash_seed():
    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    outputs = set()
    for seed in ("0", "1", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", _TICKS_SCRIPT],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        outputs.add(done.stdout)
    assert len(outputs) == 1 and outputs.pop().strip()
