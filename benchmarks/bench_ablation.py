"""Ablation studies for the design choices DESIGN.md calls out.

* A1 — BANKS edge weighting (slide 41, 1/degree idea): without the
  log-indegree penalty, answer trees route through hub tuples; with it,
  trees avoid hubs (lower mean internal degree).
* A2 — cleaner segment penalty ("prevent fragmentation", slide 68):
  removing the penalty fragments multi-token segments.
* A3 — SPARK2 partition-graph pruning (slide 135): evaluations saved on
  a query whose small CNs come up empty.
* A4 — operator-mesh structural sharing (slide 134): distinct operators
  vs unshared plan steps.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import print_table
from repro.ambiguity.cleaning import QueryCleaner
from repro.graph.data_graph import build_data_graph
from repro.graph.weights import BanksWeighting
from repro.graph_search.banks import banks_backward
from repro.schema_search.candidate_networks import generate_candidate_networks
from repro.schema_search.mesh import OperatorMesh
from repro.schema_search.spark2 import (
    evaluate_with_pruning,
    evaluate_without_pruning,
)
from repro.schema_search.tuple_sets import TupleSets


def _hub_graph(hub_penalty: bool):
    """Two keyword nodes joined by (a) a 2-edge path through a degree-30
    hub and (b) a 3-edge path through low-degree connectors."""
    import math

    from repro.graph.data_graph import DataGraph
    from repro.relational.database import TupleId

    g = DataGraph()
    k1, k2 = TupleId("t", 0), TupleId("t", 1)
    hub = TupleId("t", 2)
    hub_degree = 30
    hub_weight = 1.0 + math.log1p(hub_degree) if hub_penalty else 1.0
    g.add_edge(k1, hub, hub_weight)
    g.add_edge(hub, k2, hub_weight)
    for i in range(hub_degree - 2):  # make the hub an actual hub
        g.add_edge(hub, TupleId("t", 100 + i), hub_weight)
    m1, m2 = TupleId("t", 3), TupleId("t", 4)
    g.add_edge(k1, m1, 1.0)
    g.add_edge(m1, m2, 1.0)
    g.add_edge(m2, k2, 1.0)
    return g, k1, k2, hub


def test_banks_weighting_ablation(benchmark):
    """Slide 41's 1/degree idea: without the log-indegree edge penalty
    the answer tree routes through the hub (2 hops beat 3); with it the
    low-degree path wins."""
    uniform_graph, k1, k2, hub = _hub_graph(hub_penalty=False)
    weighted_graph, *_ = _hub_graph(hub_penalty=True)
    uniform = banks_backward(uniform_graph, [[k1], [k2]], k=1)
    weighted = banks_backward(weighted_graph, [[k1], [k2]], k=1)
    benchmark(banks_backward, weighted_graph, [[k1], [k2]], 1)
    rows = [
        ("uniform edges", "yes" if hub in uniform.trees[0].nodes else "no"),
        ("banks log-indegree", "yes" if hub in weighted.trees[0].nodes else "no"),
    ]
    print_table("A1: does the top answer tree route through the hub?",
                ["edge weighting", "through hub"], rows)
    assert hub in uniform.trees[0].nodes
    assert hub not in weighted.trees[0].nodes


def test_cleaner_penalty_ablation(benchmark, biblio_index):
    """Slide 68's 'prevent fragmentation': over a 40-query workload the
    per-segment penalty lowers the mean segment count without touching
    correctly typed tokens."""
    import random

    rng = random.Random(3)
    vocab = [t for t in biblio_index.vocabulary if len(t) >= 4]
    queries = [rng.sample(vocab, 2) for _ in range(40)]
    rows = []
    mean_segments = {}
    for penalty in (0.4, 1.0):
        cleaner = QueryCleaner(biblio_index, segment_penalty=penalty)
        total_segments = 0
        preserved = 0
        for query in queries:
            result = cleaner.clean(query)
            total_segments += len(result.segments)
            if result.cleaned_tokens() == [t.lower() for t in query]:
                preserved += 1
        mean_segments[penalty] = total_segments / len(queries)
        rows.append(
            (f"penalty {penalty}", f"{mean_segments[penalty]:.2f}",
             f"{preserved / len(queries):.2f}")
        )
    cleaner = QueryCleaner(biblio_index, segment_penalty=0.4)
    benchmark(cleaner.clean, queries[0])
    print_table("A2: fragmentation penalty over 40 correct 2-token queries",
                ["cleaner", "mean #segments", "token accuracy"], rows)
    assert mean_segments[0.4] <= mean_segments[1.0]


def _sparse_citation_db():
    """A bibliographic slice whose cite relation is empty: every CN
    routing through `cite` evaluates empty, so SPARK2 pruning can skip
    its supersets."""
    from repro.datasets.bibliographic import bibliographic_schema
    from repro.relational.database import Database

    db = Database(bibliographic_schema(with_cite=True))
    for aid, name in enumerate(["ada xml", "bob cloud", "carol xml", "dan cloud"]):
        db.insert("author", aid=aid, name=name)
    db.insert("conference", cid=0, name="sigmod", year=2007, location="beijing")
    titles = ["xml search", "cloud systems", "xml views", "cloud storage"]
    for pid, title in enumerate(titles):
        db.insert("paper", pid=pid, title=title, abstract=None, cid=0)
    for wid, (aid, pid) in enumerate([(0, 0), (1, 1), (2, 2), (3, 3)]):
        db.insert("write", wid=wid, aid=aid, pid=pid)
    return db


def test_spark2_pruning_ablation(benchmark):
    from repro.index.inverted import InvertedIndex
    from repro.relational.schema_graph import SchemaGraph

    db = _sparse_citation_db()
    index = InvertedIndex(db)
    query = ["xml", "cloud"]
    ts = TupleSets(db, index, query)
    cns = generate_candidate_networks(SchemaGraph(db.schema), ts, max_size=5)
    pruned = evaluate_with_pruning(cns, ts)
    baseline = evaluate_without_pruning(cns, ts)
    benchmark(evaluate_with_pruning, cns, ts)
    rows = [
        ("no pruning", baseline.evaluated, 0, baseline.stats.tuples_read),
        ("partition-graph pruning", pruned.evaluated, pruned.pruned,
         pruned.stats.tuples_read),
    ]
    print_table(f"A3: SPARK2 pruning over {len(cns)} CNs (empty cite relation)",
                ["mode", "evaluated", "pruned", "tuples_read"], rows)
    assert pruned.evaluated + pruned.pruned == len(cns)
    assert pruned.pruned > 0
    pruned_keys = {frozenset(r.tuple_ids()) for _, r in pruned.results}
    baseline_keys = {frozenset(r.tuple_ids()) for _, r in baseline.results}
    assert pruned_keys == baseline_keys
    assert pruned.stats.tuples_read < baseline.stats.tuples_read


def test_mesh_sharing_ablation(
    benchmark, biblio_db, biblio_index, biblio_schema_graph
):
    query = ["database", "john"]
    ts = TupleSets(biblio_db, biblio_index, query)
    cns = generate_candidate_networks(biblio_schema_graph, ts, max_size=5)
    mesh = benchmark(OperatorMesh, cns, query)
    print_table(
        f"A4: operator mesh sharing over {len(cns)} CNs",
        ["metric", "value"],
        [
            ("unshared plan steps", mesh.total_plan_steps()),
            ("mesh operators", mesh.operator_count),
            ("sharing ratio", f"{mesh.sharing_ratio():.2f}"),
        ],
    )
    assert mesh.operator_count < mesh.total_plan_steps()
