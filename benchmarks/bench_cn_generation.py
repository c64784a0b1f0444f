"""E1 — candidate network explosion (slide 115).

Claim: CN count grows explosively with the maximum CN size and with the
number of keywords ("SG Author, Write, Paper, Cite => ~0.2M CNs"); the
duplicate-free generator enumerates each network once.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import print_table
from repro.schema_search.candidate_networks import generate_candidate_networks
from repro.schema_search.tuple_sets import TupleSets


def _cns(db, index, graph, keywords, max_size):
    ts = TupleSets(db, index, keywords)
    return generate_candidate_networks(graph, ts, max_size=max_size)


def test_cn_count_grows_with_max_size(
    benchmark, biblio_db, biblio_index, biblio_schema_graph
):
    keywords = ["database", "john"]
    counts = {}
    for max_size in (2, 3, 4, 5):
        counts[max_size] = len(
            _cns(biblio_db, biblio_index, biblio_schema_graph, keywords, max_size)
        )
    benchmark(
        _cns, biblio_db, biblio_index, biblio_schema_graph, keywords, 5
    )
    rows = [(m, counts[m]) for m in sorted(counts)]
    print_table("E1a: CN count vs max CN size (Q=database john)",
                ["max_size", "#CNs"], rows)
    values = [counts[m] for m in sorted(counts)]
    assert values == sorted(values)
    assert values[-1] > 4 * values[0] if values[0] else values[-1] > 0
    # EXPERIMENTS.md E1a, exactly: the enumerator may get cheaper, the
    # CN space it enumerates may not move.
    assert values == [0, 1, 1, 9]


def test_cn_space_grows_with_keywords(
    benchmark, biblio_db, biblio_index, biblio_schema_graph
):
    """More keywords mean more tuple-set node types (the slide-115
    search-space explosion); the number of *valid* CNs at a fixed size
    is not monotone — coverage constraints can prune shapes — so the
    assertion targets the node-type space and the large-size count."""
    queries = {
        1: ["database"],
        2: ["database", "john"],
        3: ["database", "john", "query"],
    }
    node_types = {}
    counts = {}
    for n, q in queries.items():
        ts = TupleSets(biblio_db, biblio_index, q)
        node_types[n] = len(ts.non_free_keys())
        counts[n] = len(_cns(biblio_db, biblio_index, biblio_schema_graph, q, 5))
    benchmark(
        _cns, biblio_db, biblio_index, biblio_schema_graph, queries[3], 5
    )
    rows = [
        (n, " ".join(queries[n]), node_types[n], counts[n]) for n in sorted(counts)
    ]
    print_table("E1b: search space vs #keywords (max_size=5)",
                ["l", "query", "#tuple-sets", "#CNs"], rows)
    assert node_types[3] >= node_types[2] >= node_types[1]
    assert counts[3] > counts[1]
    assert counts == {1: 16, 2: 9, 3: 30}  # EXPERIMENTS.md E1b, exactly


def test_duplicate_free(benchmark, biblio_db, biblio_index, biblio_schema_graph):
    cns = benchmark(
        _cns, biblio_db, biblio_index, biblio_schema_graph,
        ["database", "john"], 5,
    )
    codes = [cn.canonical_code() for cn in cns]
    assert len(codes) == len(set(codes))
