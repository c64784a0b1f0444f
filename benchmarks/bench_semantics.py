"""E18 — result semantics: distinct root vs distinct core vs EASE
(slides 31, 128).

Claims: distinct-root inflates the answer list relative to distinct
cores (many roots per match combination); r-radius *Steiner* subgraphs
contain fewer "unnecessary nodes" than the raw r-radius balls they come
from.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import print_table
from repro.graph_search.ease import r_radius_steiner_graphs
from repro.graph_search.semantics import (
    distinct_core_results,
    distinct_root_results,
)
from repro.index.distance import within_hops

QUERY = ["query", "john"]
DMAX = 4.0


@pytest.fixture(scope="module")
def groups(biblio_index):
    gs = [biblio_index.matching_tuples(k) for k in QUERY]
    assert all(gs)
    return gs


def test_distinct_root(benchmark, biblio_graph, groups):
    answers = benchmark(distinct_root_results, biblio_graph, groups, DMAX)
    assert answers


def test_distinct_core(benchmark, biblio_graph, groups):
    answers = benchmark(distinct_core_results, biblio_graph, groups, DMAX)
    assert answers


def test_dedup_shape(benchmark, biblio_graph, groups):
    roots = distinct_root_results(biblio_graph, groups, dmax=DMAX)
    cores = distinct_core_results(biblio_graph, groups, dmax=DMAX)
    benchmark(distinct_core_results, biblio_graph, groups, DMAX)
    print_table(
        f"E18a: answer-list sizes (Q={' '.join(QUERY)}, Dmax={DMAX})",
        ["semantics", "#answers"],
        [
            ("distinct root", len(roots)),
            ("distinct core", len(cores)),
        ],
    )
    assert len(roots) >= len(cores)
    # Cores are unique combinations.
    assert len({c.core for c in cores}) == len(cores)


def test_ease_steiner_reduction(benchmark, biblio_graph, groups):
    r = 3
    answers = benchmark(r_radius_steiner_graphs, biblio_graph, groups, r, 20)
    assert answers
    rows = []
    shrunk = 0
    for answer in answers[:8]:
        ball = len(within_hops(biblio_graph, (biblio_graph.index[answer.center],), r))
        rows.append((str(answer.center), ball, answer.size()))
        if answer.size() < ball:
            shrunk += 1
    print_table(
        f"E18b: r-radius ball vs Steiner reduction (r={r})",
        ["center", "ball_nodes", "steiner_nodes"],
        rows,
    )
    assert shrunk >= len(rows) // 2  # reduction removes unnecessary nodes
