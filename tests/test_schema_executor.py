"""Generated differential test for the unified CN executor.

Small random schemas, databases and keyword sets; every path that
answers a ``schema`` query must equal a brute-force oracle — every CN's
results straight from the definition (:func:`definition_results`: the
product of its tuple sets, filtered by the join predicates and tuple
distinctness), ``monotonic_result_score`` per result, one full sort on
``(-score, (label, tuple ids))`` — in scores, tuple ids and labels,
results tied at the k-th score included.  The exhaustive evaluators
(``cn_results``, ``all_results``, SPARK2 pruning, the operator mesh,
query forms) must equal the definition CN by CN.  A three-word
vocabulary and texts of at most two words make equal scores (and so
ties at k decided by the content key alone) the common case.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.core.engine import KeywordSearchEngine
from repro.datasets import words
from repro.datasets.bibliographic import generate_bibliographic_db
from repro.forms.model import PredicateSlot, QueryForm, Skeleton
from repro.index.inverted import InvertedIndex
from repro.index.text import tokenize
from repro.obs.trace import Tracer
from repro.query.compiler import FilteredTupleSets, RowFilter, WeightedIndexView
from repro.relational.database import Database
from repro.relational.executor import JoinedRow, JoinStats
from repro.relational.schema import Column, ForeignKey, Schema, TableSchema
from repro.relational.schema_graph import SchemaGraph
from repro.resilience.budget import QueryBudget
from repro.schema_search import scoring
from repro.schema_search.candidate_networks import generate_candidate_networks
from repro.schema_search.evaluate import all_results, cn_results
from repro.schema_search.mesh import OperatorMesh
from repro.schema_search.scoring import monotonic_result_score
from repro.schema_search.spark2 import evaluate_with_pruning, evaluate_without_pruning
from repro.schema_search.topk import (
    CNQueryContext,
    _TopKHeap,
    run_bound_ordered,
    topk_global_pipeline,
    topk_naive,
    topk_single_pipeline,
    topk_sparse,
)
from repro.schema_search.tuple_sets import TupleSets
from repro.sharding import ShardedSearchEngine

from . import executor_reference as reference

VOCAB = ["ant", "bee", "cat"]
KS = (1, 3, 10)
MAX_CN_SIZE = 4


# ----------------------------------------------------------------------
# Generated inputs
# ----------------------------------------------------------------------
@st.composite
def databases(draw, parallel_fks: bool = False) -> Database:
    """2-4 tables; table i references 1-2 earlier tables (never itself).

    With *parallel_fks*, table 1 references table 0 through two foreign
    keys, so CNs differ only in which FK an edge uses.  FK values are
    drawn null or a valid key.
    """
    n_tables = draw(st.integers(2, 4))
    fk_targets = [[]]
    for i in range(1, n_tables):
        if parallel_fks and i == 1:
            fk_targets.append([0, 0])
            continue
        fk_targets.append(
            draw(st.lists(st.integers(0, i - 1), min_size=1, max_size=2))
        )
    tables = []
    for i, targets in enumerate(fk_targets):
        columns = [Column("id", "int"), Column("txt", "str", nullable=True, text=True)]
        fks = []
        for j, target in enumerate(targets):
            columns.append(Column(f"r{j}", "int", nullable=True))
            fks.append(ForeignKey(f"r{j}", f"t{target}", "id"))
        tables.append(TableSchema(f"t{i}", tuple(columns), "id", tuple(fks)))
    db = Database(Schema(tables))
    words = st.lists(st.sampled_from(VOCAB), max_size=2)
    sizes = []
    for i, targets in enumerate(fk_targets):
        n_rows = draw(st.integers(1, 6))
        sizes.append(n_rows)
        for rowid in range(n_rows):
            values = {"id": rowid, "txt": " ".join(draw(words)) or None}
            for j, target in enumerate(targets):
                values[f"r{j}"] = draw(
                    st.one_of(st.none(), st.integers(0, sizes[target] - 1))
                )
            db.insert(f"t{i}", **values)
    return db


keyword_sets = st.lists(st.sampled_from(VOCAB), min_size=1, max_size=3, unique=True)


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------
def _joins(rows, a, b, edge) -> bool:
    """Does CN edge (a, b) hold: the FK column of the endpoint on the
    edge's child side equals the referenced column of the other, and is
    not null?"""
    if rows[a].table.name != edge.child:
        a, b = b, a
    value = rows[a][edge.fk.column]
    return value is not None and value == rows[b][edge.fk.ref_column]


def _assignments(members, edges, distinct):
    """Every choice of one row from each node's list of *members* where
    every edge joins (and, if *distinct*, no row repeats): the filtered
    product, enumerated node by node so an edge is checked as soon as
    both its ends are chosen."""
    checks = [[e for e in edges if max(e[0], e[1]) == i] for i in range(len(members))]
    rows = []

    def extend():
        i = len(rows)
        if i == len(members):
            yield tuple(rows)
            return
        for row in members[i]:
            if distinct and row in rows:
                continue
            rows.append(row)
            if all(_joins(rows, a, b, edge) for a, b, edge in checks[i]):
                yield from extend()
            rows.pop()

    return extend()


def definition_results(cn, tuple_sets):
    """The CN's joining networks of tuples, by brute force from the
    definition: the product of each node's ``tuple_ids``, kept where
    every CN edge joins on equal non-null values and no tuple occurs
    twice.  JoinedRows in CN node order."""
    db = tuple_sets.db
    members = [[db.row(t) for t in tuple_sets.tuple_ids(node.key)] for node in cn.nodes]
    aliases = tuple(f"n{i}" for i in range(cn.size))
    return [
        JoinedRow(aliases, rows) for rows in _assignments(members, cn.edges, True)
    ]


def oracle(tuple_sets, cns, index, keywords):
    """Every result of every CN, fully sorted in the executor's order."""
    scored = [
        (monotonic_result_score(index, joined, keywords), cn.label(), joined.tuple_ids())
        for cn in cns
        for joined in definition_results(cn, tuple_sets)
    ]
    scored.sort(key=lambda entry: (-entry[0], (entry[1], entry[2])))
    return scored


def fresh_oracle(db, keywords):
    index = InvertedIndex(db)
    tuple_sets = TupleSets(db, index, keywords)
    cns = generate_candidate_networks(
        SchemaGraph(db.schema), tuple_sets, max_size=MAX_CN_SIZE
    )
    return oracle(tuple_sets, cns, index, keywords)


def engine_signature(results):
    return [
        (r.score, r.network, tuple((t.table, t.rowid) for t in r.tuple_ids()))
        for r in results
    ]


def executor_signature(result):
    return [(score, label, joined.tuple_ids()) for score, label, joined in result.results]


# ----------------------------------------------------------------------
# Exactness
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(db=databases(), keywords=keyword_sets)
def test_single_engine_equals_oracle(db, keywords):
    expected = fresh_oracle(db, keywords)
    engine = KeywordSearchEngine(db, max_cn_size=MAX_CN_SIZE, clean_queries=False)
    text = " ".join(keywords)
    for k in KS:
        found = engine.search(text, k=k, use_cache=False)
        assert engine_signature(found) == expected[:k]
        assert not found.degraded
        budgeted = engine.search(text, k=k, timeout_ms=60_000.0)
        assert engine_signature(budgeted) == expected[:k]


@settings(max_examples=40, deadline=None)
@given(db=databases(), keywords=keyword_sets, n_shards=st.sampled_from([1, 2, 4]))
def test_sharded_engine_equals_oracle(db, keywords, n_shards):
    expected = fresh_oracle(db, keywords)
    engine = ShardedSearchEngine(
        db, n_shards=n_shards, max_cn_size=MAX_CN_SIZE, clean_queries=False
    )
    try:
        for k in KS:
            found = engine.search(" ".join(keywords), k=k, use_cache=False)
            assert engine_signature(found) == expected[:k]
            assert not found.degraded
    finally:
        engine.close()


@settings(max_examples=60, deadline=None)
@given(
    db=databases(),
    keywords=keyword_sets,
    banned_bits=st.integers(0, 2**12 - 1),
    allowed_bits=st.integers(0, 2**6 - 1),
)
def test_filtered_tuple_sets_equal_oracle(db, keywords, banned_bits, allowed_bits):
    index = InvertedIndex(db)
    every = sorted(db.all_tuple_ids())
    banned = {tid for i, tid in enumerate(every) if (banned_bits >> (i % 12)) & 1}
    view = FilteredTupleSets(
        TupleSets(db, index, keywords), RowFilter({"t0": allowed_bits}, banned)
    )
    cns = generate_candidate_networks(
        SchemaGraph(db.schema), view, max_size=MAX_CN_SIZE
    )
    expected = oracle(view, cns, index, keywords)
    for k in KS:
        found = topk_global_pipeline(cns, view, index, keywords, k=k)
        assert executor_signature(found) == expected[:k]


@settings(max_examples=40, deadline=None)
@given(
    db=databases(),
    keywords=keyword_sets,
    weights=st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0]), min_size=3, max_size=3),
)
def test_weighted_index_view_equals_oracle(db, keywords, weights):
    index = WeightedIndexView(InvertedIndex(db), dict(zip(VOCAB, weights)))
    tuple_sets = TupleSets(db, index, keywords)
    cns = generate_candidate_networks(
        SchemaGraph(db.schema), tuple_sets, max_size=MAX_CN_SIZE
    )
    expected = oracle(tuple_sets, cns, index, keywords)
    for k in KS:
        found = topk_global_pipeline(cns, tuple_sets, index, keywords, k=k)
        assert executor_signature(found) == expected[:k]


@settings(max_examples=25, deadline=None)
@given(
    db=databases(),
    keywords=keyword_sets,
    texts=st.lists(st.lists(st.sampled_from(VOCAB), max_size=2), min_size=1, max_size=3),
)
def test_insert_then_refresh_equals_oracle(db, keywords, texts):
    engine = KeywordSearchEngine(db, max_cn_size=MAX_CN_SIZE, clean_queries=False)
    text = " ".join(keywords)
    engine.search(text, k=3)  # warm the memos the inserts must patch
    for words in texts:
        db.insert("t0", id=len(db.table("t0")), txt=" ".join(words) or None)
        expected = fresh_oracle(db, keywords)
        for k in KS:
            found = engine.search(text, k=k, use_cache=False)
            assert engine_signature(found) == expected[:k]


def test_tie_at_k_is_found_in_a_later_slice():
    """All scores equal; the anchor is node 1, so the result with the
    smallest content key sits in the *second* slice.  A non-strict stop
    (or dropping results equal to the k-th score) returns the wrong
    tuple at k=1."""
    db = Database(
        Schema(
            [
                TableSchema(
                    "t0",
                    (Column("id", "int"), Column("txt", "str", nullable=True, text=True)),
                    "id",
                ),
                TableSchema(
                    "t1",
                    (
                        Column("id", "int"),
                        Column("txt", "str", text=True),
                        Column("r0", "int", nullable=True),
                    ),
                    "id",
                    (ForeignKey("r0", "t0", "id"),),
                ),
            ]
        )
    )
    for rowid, txt in enumerate(["bee", None, "bee"]):
        db.insert("t0", id=rowid, txt=txt)
    for rowid, ref in enumerate([2, 0, None]):
        db.insert("t1", id=rowid, txt="ant", r0=ref)
    expected = fresh_oracle(db, ["ant", "bee"])
    assert expected[0][2] == (("t0", 0), ("t1", 1))
    assert expected[0][0] == expected[1][0]
    engine = KeywordSearchEngine(db, clean_queries=False)
    for k in (1, 2):
        found = engine.search("ant bee", k=k, use_cache=False)
        assert engine_signature(found) == expected[:k]


# ----------------------------------------------------------------------
# Budgets
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(db=databases(), keywords=keyword_sets, delta=st.sampled_from([-2, -1, 0, 1]))
def test_cn_memo_charges_what_enumeration_costs(db, keywords, delta):
    """``max_cns`` below / at / above the memoised dequeue count: a warm
    memo returns the CN list and ``degraded`` flag a cold one does."""
    meter = QueryBudget()
    index = InvertedIndex(db)
    generate_candidate_networks(
        SchemaGraph(db.schema),
        TupleSets(db, index, keywords),
        max_size=MAX_CN_SIZE,
        budget=meter,
    )
    cap = max(0, meter.cns_enumerated + delta)
    text = " ".join(keywords)
    cold = KeywordSearchEngine(db, max_cn_size=MAX_CN_SIZE, clean_queries=False)
    warm = KeywordSearchEngine(db, max_cn_size=MAX_CN_SIZE, clean_queries=False)
    warm.search(text, k=3)
    assert warm.substrates.stats()["entries"]["candidate_networks"] == 1
    cold_budget, warm_budget = QueryBudget(max_cns=cap), QueryBudget(max_cns=cap)
    cold_cns = cold.substrates.candidate_networks(keywords, MAX_CN_SIZE, cold_budget)
    warm_cns = warm.substrates.candidate_networks(keywords, MAX_CN_SIZE, warm_budget)
    assert [cn.canonical_code() for cn in warm_cns] == [
        cn.canonical_code() for cn in cold_cns
    ]
    assert warm_budget.exhausted == cold_budget.exhausted
    assert cold_budget.exhausted == (cap < meter.cns_enumerated)
    assert warm_budget.cns_enumerated == cold_budget.cns_enumerated
    for k in KS:
        a = cold.search(text, k=k, max_expansions=cap)
        b = warm.search(text, k=k, max_expansions=cap)
        assert engine_signature(a) == engine_signature(b)
        assert (a.degraded, a.degraded_reason) == (b.degraded, b.degraded_reason)


@settings(max_examples=25, deadline=None)
@given(
    db=databases(),
    keywords=keyword_sets,
    k=st.sampled_from(KS),
    caps=st.lists(st.integers(0, 60), max_size=8),
)
def test_candidate_budget_returns_prefix_consistent_partial_heap(db, keywords, k, caps):
    index = InvertedIndex(db)
    tuple_sets = TupleSets(db, index, keywords)
    cns = generate_candidate_networks(
        SchemaGraph(db.schema), tuple_sets, max_size=MAX_CN_SIZE
    )
    everything = oracle(tuple_sets, cns, index, keywords)
    # Two CNs can share a label and a result (parallel foreign keys),
    # so results form a multiset.
    population = Counter(everything)
    order = lambda entry: (-entry[0], (entry[1], entry[2]))
    full = executor_signature(topk_global_pipeline(cns, tuple_sets, index, keywords, k=k))
    assert full == everything[:k]
    previous = []
    for cap in sorted({0, len(everything), len(everything) + 1, *caps}):
        budget = QueryBudget(max_candidates=cap)
        partial = executor_signature(
            topk_global_pipeline(cns, tuple_sets, index, keywords, k=k, budget=budget)
        )
        # Genuine results, in the executor's total order, no more than
        # the budget paid for.
        assert not Counter(partial) - population
        assert partial == sorted(partial, key=order)
        assert len(partial) <= min(k, cap)
        if budget.exhausted:
            # A longer prefix only ever displaces entries by better ones.
            assert len(partial) >= len(previous)
            dropped = Counter(previous) - Counter(partial)
            assert all(order(e) >= order(partial[-1]) for e in dropped)
            previous = partial
        else:
            assert partial == full


def test_degraded_flag_on_candidate_exhaustion():
    engine = KeywordSearchEngine(generate_bibliographic_db(seed=7))
    engine.search("xml", k=10)  # a warm CN memo charges the budget too
    results = engine.search("xml", k=10, max_expansions=200)
    assert results.degraded
    assert "candidate scoring budget exhausted" in results.degraded_reason
    assert 0 < len(results) <= 10


# ----------------------------------------------------------------------
# Score-once is observable
# ----------------------------------------------------------------------
def test_each_matched_tuple_is_scored_at_most_once(monkeypatch):
    """biblio-150, ``xml``, k=10: no more ``tuple_score`` calls than
    tuples matching a query keyword (114 385 calls before unification)."""
    engine = KeywordSearchEngine(generate_bibliographic_db(seed=7))
    matching = len(set(engine.index.matching_tuples_view("xml")))
    calls = []
    real = scoring.tuple_score

    def counting(index, tid, keywords):
        calls.append(tid)
        return real(index, tid, keywords)

    monkeypatch.setattr("repro.schema_search.topk.tuple_score", counting)
    results = engine.search("xml", k=10, use_cache=False)
    assert len(results) == 10
    assert 0 < len(calls) <= matching
    assert len(set(calls)) == len(calls)


# ----------------------------------------------------------------------
# Differential: index nested-loop on rowids vs the hash-join reference
# ----------------------------------------------------------------------
def _tied(db: Database) -> Database:
    """A copy of *db* whose every row carries the same text, so every
    tuple of a table scores the same and results tie massively."""
    out = Database(db.schema)
    for name, table in db.tables.items():  # t0 first: parents before children
        for row in table.rows():
            out.insert(name, **{**row.as_dict(), "txt": "ant bee"})
    return out


maybe_tied_databases = st.one_of(databases(), databases().map(_tied))
row_filters = st.one_of(
    st.none(), st.tuples(st.integers(0, 2**12 - 1), st.integers(0, 2**6 - 1))
)


def _substrates(db, keywords, row_filter):
    index = InvertedIndex(db)
    tuple_sets = TupleSets(db, index, keywords)
    if row_filter is not None:
        banned_bits, allowed_bits = row_filter
        every = sorted(db.all_tuple_ids())
        banned = {tid for i, tid in enumerate(every) if (banned_bits >> (i % 12)) & 1}
        tuple_sets = FilteredTupleSets(
            tuple_sets, RowFilter({"t0": allowed_bits}, banned)
        )
    cns = generate_candidate_networks(
        SchemaGraph(db.schema), tuple_sets, max_size=MAX_CN_SIZE
    )
    return index, tuple_sets, cns


def _anchor_filters(owners):
    """A partition of the tuple space into *owners* anchor filters."""
    if owners == 1:
        return [None]
    return [
        lambda tid, mine=mine: (tid.rowid + len(tid.table) + ord(tid.table[-1]))
        % owners
        == mine
        for mine in range(owners)
    ]


def _run_index_join(cns, tuple_sets, index, keywords, k, anchor_filters, budget=None):
    """The new executor over *anchor_filters*, one after the other, into one heap."""
    heap = _TopKHeap(k)
    context = CNQueryContext(cns, tuple_sets, index, keywords)
    runs = [
        run_bound_ordered(
            context.cursors(anchor_filter),
            heap.offer_rowids,
            heap.kth_score,
            JoinStats(),
            budget,
        )
        for anchor_filter in anchor_filters
    ]
    return [(s, l, j.tuple_ids()) for s, l, j in heap.sorted_results()], runs


@settings(max_examples=60, deadline=None)
@given(
    db=maybe_tied_databases,
    keywords=keyword_sets,
    row_filter=row_filters,
    owners=st.sampled_from([1, 2, 4]),
)
def test_index_join_equals_hash_join_reference(db, keywords, row_filter, owners):
    index, tuple_sets, cns = _substrates(db, keywords, row_filter)
    everything = oracle(tuple_sets, cns, index, keywords)
    filters = _anchor_filters(owners)
    for k in KS:
        want, ref_runs = reference.reference_topk(
            cns, tuple_sets, index, keywords, k, anchor_filters=filters
        )
        got, runs = _run_index_join(cns, tuple_sets, index, keywords, k, filters)
        assert got == [(s, l, j.tuple_ids()) for s, l, j in want] == everything[:k]
        for run, ref_run in zip(runs, ref_runs):
            # Same slices in the same order; fewer candidates leave them.
            assert (run.batches, run.cns_executed, run.pruned) == (
                ref_run.batches,
                ref_run.cns_executed,
                ref_run.pruned,
            )
            assert run.produced <= ref_run.produced
            assert not run.exhausted


@settings(max_examples=60, deadline=None)
@given(
    db=maybe_tied_databases,
    keywords=keyword_sets,
    row_filter=row_filters,
    floor_rank=st.integers(0, 12),
)
def test_every_slice_keeps_the_reference_candidates_that_reach_the_floor(
    db, keywords, row_filter, floor_rank
):
    """Slice by slice, under a floor drawn from the actual scores (or
    none): exactly the reference's candidates scoring >= the floor, in
    the reference's order — the in-slice bound only drops partials no
    completion of which could have reached it."""
    index, tuple_sets, cns = _substrates(db, keywords, row_filter)
    scores = sorted({score for score, _, _ in oracle(tuple_sets, cns, index, keywords)})
    floor = scores[floor_rank] if floor_rank < len(scores) else float("-inf")
    ref_cursors = reference.CNQueryContext(cns, tuple_sets, index, keywords).cursors()
    new_cursors = CNQueryContext(cns, tuple_sets, index, keywords).cursors()
    stats, ref_stats = JoinStats(), reference.BuildSideStats()
    for new, ref in zip(new_cursors, ref_cursors):
        while not ref.exhausted():
            assert new.bound() == ref.bound()
            want = [
                (score, [row.rowid for row in rows])
                for score, rows in ref.next_batch(ref_stats)
                if score >= floor
            ]
            assert new.next_batch(stats, floor) == want
        assert new.exhausted()
    assert stats.tuples_emitted <= ref_stats.tuples_emitted


@settings(max_examples=40, deadline=None)
@given(
    db=maybe_tied_databases,
    keywords=keyword_sets,
    k=st.sampled_from(KS),
    cap=st.integers(0, 12),
)
def test_candidate_budget_degrades_to_genuine_results(db, keywords, k, cap):
    index, tuple_sets, cns = _substrates(db, keywords, None)
    population = Counter(oracle(tuple_sets, cns, index, keywords))
    full, (full_run,) = _run_index_join(cns, tuple_sets, index, keywords, k, [None])
    budget = QueryBudget(max_candidates=cap)
    partial, (run,) = _run_index_join(
        cns, tuple_sets, index, keywords, k, [None], budget
    )
    assert run.exhausted == budget.exhausted == (full_run.produced > cap)
    assert not Counter(partial) - population
    if run.exhausted:
        assert len(partial) <= min(k, cap)
    else:
        assert partial == full


@settings(max_examples=30, deadline=None)
@given(db=maybe_tied_databases, keywords=keyword_sets, k=st.sampled_from(KS))
def test_traced_run_equals_untraced_with_the_same_span_names(db, keywords, k):
    index, tuple_sets, cns = _substrates(db, keywords, None)
    untraced = topk_global_pipeline(cns, tuple_sets, index, keywords, k=k)
    tracer = Tracer()
    with tracer.span("search"):
        traced = topk_global_pipeline(
            cns, tuple_sets, index, keywords, k=k, tracer=tracer
        )
    assert executor_signature(traced) == executor_signature(untraced)
    trace = tracer.finish()
    assert trace.span_names() == ["search", "plan", "score", "evaluate", "topk"]
    evaluate = trace.find("evaluate")
    assert set(evaluate.counters) == {
        "batches", "cns_executed", "produced", "dropped", "pruned",
    }
    assert evaluate.counters["batches"] == traced.batches


# ----------------------------------------------------------------------
# Exhaustive evaluation equals the definition, CN by CN
# ----------------------------------------------------------------------
definition_databases = st.one_of(
    databases(), databases(parallel_fks=True)
).flatmap(lambda db: st.sampled_from([db, _tied(db)]))


def _per_cn(cns, pairs):
    """(cn, joined) pairs as one tuple-id multiset per CN of *cns*."""
    at = {id(cn): i for i, cn in enumerate(cns)}
    out = [Counter() for _ in cns]
    for cn, joined in pairs:
        out[at[id(cn)]][joined.tuple_ids()] += 1
    return out


@settings(max_examples=40, deadline=None)
@given(
    db=definition_databases,
    keywords=keyword_sets,
    bound=st.lists(st.sampled_from([None, "ant", "bee", "ant bee", "cat"]), max_size=4),
)
def test_exhaustive_evaluation_equals_the_definition(db, keywords, bound):
    """FK nulls, all-tied scores and two parallel FKs between one table
    pair: every exhaustive evaluator yields each CN's definition as a
    multiset, and a query form over a CN's join tree yields the
    definition over whole tables filtered by its bindings."""
    index = InvertedIndex(db)
    tuple_sets = TupleSets(db, index, keywords)
    cns = generate_candidate_networks(
        SchemaGraph(db.schema), tuple_sets, max_size=MAX_CN_SIZE
    )
    want = _per_cn(
        cns, [(cn, j) for cn in cns for j in definition_results(cn, tuple_sets)]
    )
    assert _per_cn(
        cns, [(cn, joined) for cn in cns for joined in cn_results(cn, tuple_sets)]
    ) == want
    assert _per_cn(cns, all_results(cns, tuple_sets)) == want
    pruned = evaluate_with_pruning(cns, tuple_sets)
    assert _per_cn(cns, pruned.results) == want
    assert _per_cn(cns, evaluate_without_pruning(cns, tuple_sets).results) == want
    assert pruned.evaluated + pruned.pruned == len(cns)

    mesh = OperatorMesh(cns, keywords)
    streamed = [Counter() for _ in cns]
    for tid in db.all_tuple_ids():
        for cn_index, rows in mesh.feed(db.row(tid)):
            streamed[cn_index][tuple((r.table.name, r.rowid) for r in rows)] += 1
    assert streamed == want

    # Bind the text of the first len(bound) tables; a binding applies to
    # every node of its table, as a form's slot labels do.
    bindings = {f"t{i}.txt": value for i, value in enumerate(bound)}
    for cn in cns:
        tables = tuple(node.table for node in cn.nodes)
        form = QueryForm(
            Skeleton(tables, tuple(cn.edges)),
            tuple(PredicateSlot(i, t, "txt") for i, t in enumerate(tables)),
        )
        members = [
            [
                row
                for row in db.rows(table)
                if bindings.get(f"{table}.txt", row["txt"]) == row["txt"]
            ]
            for table in tables
        ]
        expected = Counter(
            tuple((r.table.name, r.rowid) for r in rows)
            for rows in _assignments(members, cn.edges, False)
        )
        assert Counter(j.tuple_ids() for j in form.evaluate(db, bindings)) == expected


# ----------------------------------------------------------------------
# The four VLDB 03 strategies are stop policies: one answer
# ----------------------------------------------------------------------
STRATEGIES = (topk_naive, topk_sparse, topk_single_pipeline, topk_global_pipeline)


def _assert_strategies_agree(cns, tuple_sets, index, keywords, k):
    naive, *others = (
        executor_signature(strategy(cns, tuple_sets, index, keywords, k=k))
        for strategy in STRATEGIES
    )
    for strategy, found in zip(STRATEGIES[1:], others):
        assert found == naive, (strategy.__name__, keywords, k)


def pool_shaped_queries(db, n=80, seed=11):
    """``n`` distinct 1-3 keyword queries shaped like the e2e benchmark's
    Zipf pool: topic / first / last / venue words of one paper, its
    authors and its venue, so a joining network exists for each."""
    rng = random.Random(seed)
    topic = set(words.TOPIC_WORDS)
    authors = {}
    for write in db.rows("write"):
        name = db.table("author").by_key(write["aid"])["name"]
        authors.setdefault(write["pid"], []).append(name)
    facts = []
    for paper in db.rows("paper"):
        topics = [t for t in dict.fromkeys(tokenize(paper["title"])) if t in topic]
        if topics and paper["pid"] in authors:
            venue = db.table("conference").by_key(paper["cid"])["name"]
            facts.append((topics, authors[paper["pid"]], venue))
    shapes = (
        ("topic",), ("last",), ("venue",),
        ("topic", "topic"), ("last", "topic"), ("first", "topic"),
        ("venue", "topic"), ("first", "last"),
        ("topic", "topic", "last"), ("venue", "topic", "last"),
    )
    pool = []
    while len(pool) < n:
        topics, names, venue = rng.choice(facts)
        first, last = rng.choice(names).split()
        parts = {"first": [first], "last": [last], "venue": [venue]}
        parts["topic"] = rng.sample(topics, min(2, len(topics)))
        shape = rng.choice(shapes)
        if shape.count("topic") > len(parts["topic"]):
            continue
        text = " ".join(parts[part].pop() for part in shape)
        if text not in pool:
            pool.append(text)
    return pool


def test_strategies_agree_on_pool_shaped_queries():
    """biblio-150, k=10.  ``sun xml`` / ``cloud`` / ``chen search`` are the
    queries on which ``topk_single_pipeline`` stopped at a tie with the
    k-th score (``bound <= kth + EPS``) and returned a different list."""
    engine = KeywordSearchEngine(generate_bibliographic_db(seed=7))
    queries = ["sun xml", "cloud", "chen search"] + pool_shaped_queries(engine.db)
    for text in queries:
        keywords = list(engine.parse(text).keywords)
        cns = engine.substrates.candidate_networks(keywords, engine.max_cn_size)
        tuple_sets = engine.substrates.tuple_sets(keywords)
        _assert_strategies_agree(cns, tuple_sets, engine.index, keywords, 10)


def test_strategies_agree_beside_a_burst_of_same_shaped_inserts():
    """The insert workload's shape: 60 papers whose titles pair 6 topic
    words, so ~20 results tie exactly at every score the topics reach."""
    db = generate_bibliographic_db(seed=7)
    topics = ("privacy", "provenance", "skyline", "spatial", "temporal", "workflow")
    rng = random.Random(11)
    for i in range(60):
        pid = 100_000 + i
        title = f"bt{i:04d} {topics[i % 6]} {topics[(i + 3) % 6]}"
        db.insert("paper", pid=pid, title=title, abstract=None, cid=rng.randrange(8))
        db.insert("write", wid=100_000 + i, aid=rng.randrange(60), pid=pid)
    engine = KeywordSearchEngine(db)
    lasts = sorted({a["name"].split()[1] for a in db.rows("author")})
    venues = sorted({c["name"] for c in db.rows("conference")})
    queries = list(topics)
    for word in topics:
        queries += [f"{word} {rng.choice(venues)}", f"{rng.choice(lasts)} {word}"]
    for text in queries:
        keywords = list(engine.parse(text).keywords)
        cns = engine.substrates.candidate_networks(keywords, engine.max_cn_size)
        tuple_sets = engine.substrates.tuple_sets(keywords)
        _assert_strategies_agree(cns, tuple_sets, engine.index, keywords, 10)


@settings(max_examples=40, deadline=None)
@given(db=databases().map(_tied), keywords=keyword_sets, k=st.sampled_from(KS))
def test_strategies_agree_when_every_score_ties(db, keywords, k):
    index, tuple_sets, cns = _substrates(db, keywords, None)
    _assert_strategies_agree(cns, tuple_sets, index, keywords, k)


# ----------------------------------------------------------------------
# Hash-seed independence
# ----------------------------------------------------------------------
_SEED_PROBE = """
import hashlib, json, sys
from repro.core.engine import KeywordSearchEngine
from repro.datasets.bibliographic import generate_bibliographic_db
from repro.relational.executor import JoinStats
from repro.schema_search.topk import CNQueryContext, _TopKHeap, run_bound_ordered

engine = KeywordSearchEngine(generate_bibliographic_db(seed=7))
answers, work = [], [0, 0, 0, 0]
for text in json.load(sys.stdin):
    keywords = list(engine.parse(text).keywords)
    cns = engine.substrates.candidate_networks(keywords, engine.max_cn_size)
    tuple_sets = engine.substrates.tuple_sets(keywords)
    heap = _TopKHeap(10)
    cursors = CNQueryContext(cns, tuple_sets, engine.index, keywords).cursors()
    run = run_bound_ordered(cursors, heap.offer_rowids, heap.kth_score, JoinStats())
    answers.append([(s, l, j.tuple_ids()) for s, l, j in heap.sorted_results()])
    for i, n in enumerate((run.batches, run.produced, run.pruned, run.cns_executed)):
        work[i] += n
digest = hashlib.sha256(json.dumps(answers).encode()).hexdigest()
print(json.dumps({"answers": digest, "work": work}))
"""


def test_answers_and_work_do_not_depend_on_the_hash_seed():
    """Answers and ``(batches, produced, pruned, cns_executed)`` over the
    80-query pool are the same under ``PYTHONHASHSEED`` 0, 1 and 2: the
    executor iterates lists, index buckets and sorted queues, never a
    set or a dict keyed by strings."""
    queries = pool_shaped_queries(generate_bibliographic_db(seed=7))
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    outcomes = []
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", _SEED_PROBE],
            input=json.dumps(queries),
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outcomes.append(json.loads(done.stdout))
    assert outcomes[0]["work"][1] > 0
    assert outcomes[1] == outcomes[0]
    assert outcomes[2] == outcomes[0]
