"""CN plans and their shared-subexpression codes, malformed-CN checks,
what a query's CNs and shards share (one query context, one top-k
heap), one executor across execution modes, and incremental
index/substrate maintenance."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.datasets.bibliographic import (
    generate_bibliographic_db,
    tiny_bibliographic_db,
)
from repro.index.inverted import InvertedIndex
from repro.relational.database import TupleId
from repro.relational.executor import JoinStats
from repro.relational.schema_graph import SchemaGraph
from repro.resilience.budget import QueryBudget
from repro.resilience.errors import SearchExecutionError
from repro.schema_search.candidate_networks import (
    CandidateNetwork,
    generate_candidate_networks,
)
from repro.schema_search.evaluate import all_results, cn_results, evaluate_cn
from repro.schema_search.plans import (
    bfs_join_order,
    cardinality_join_order,
    prefix_codes,
    prefix_identity,
)
from repro.schema_search.topk import (
    CNQueryContext,
    _TopKHeap,
    run_bound_ordered,
    topk_global_pipeline,
    topk_naive,
)
from repro.schema_search.tuple_sets import TupleSets

from .test_schema_executor import _assignments, _per_cn, definition_results, oracle

BIBLIO_QUERIES = [
    ["database", "query"],
    ["xml", "query"],
    ["xml", "keyword"],
    ["john", "database"],
]

PRODUCT_QUERIES = [
    ["lenovo", "laptop"],
    ["cheap", "tablet"],
]


def _substrates(db, index, keywords, max_size=4):
    tuple_sets = TupleSets(db, index, keywords)
    cns = generate_candidate_networks(
        SchemaGraph(db.schema), tuple_sets, max_size=max_size
    )
    return tuple_sets, cns


def _topk_signature(results):
    return [(score, label, joined.tuple_ids()) for score, label, joined in results]


def _shared_heap_topk(cns, tuple_sets, index, keywords, k, workers):
    """*workers* anchor slices of one query context, run one after the
    other into one shared heap (the sharded engine's scatter)."""
    context = CNQueryContext(cns, tuple_sets, index, keywords)
    heap, stats = _TopKHeap(k), JoinStats()
    runs = [
        run_bound_ordered(
            context.cursors(
                lambda tid, mine=mine: (tid.rowid + len(tid.table)) % workers == mine
            ),
            heap.offer_rowids,
            heap.kth,
            stats,
        )
        for mine in range(workers)
    ]
    return heap.sorted_results(), runs


@pytest.fixture(scope="module")
def biblio_setup(biblio_db):
    index = InvertedIndex(biblio_db)
    return biblio_db, index


@pytest.fixture(scope="module")
def joiny_cn(biblio_setup):
    """A multi-node CN plus its tuple sets, for plan/corruption tests."""
    db, index = biblio_setup
    tuple_sets, cns = _substrates(db, index, ["xml", "query"])
    cn = max(cns, key=lambda c: c.size)
    assert cn.size >= 3
    return tuple_sets, cn


# ----------------------------------------------------------------------
# Join-order planning
# ----------------------------------------------------------------------
class TestPlans:
    def test_orders_cover_every_node_once(self, biblio_setup):
        db, index = biblio_setup
        tuple_sets, cns = _substrates(db, index, ["xml", "query"])
        for cn in cns:
            for steps in (
                bfs_join_order(cn),
                cardinality_join_order(cn, tuple_sets),
            ):
                assert sorted(s.node for s in steps) == list(range(cn.size))
                assert steps[0].parent is None and steps[0].edge is None
                seen = {steps[0].node}
                for step in steps[1:]:
                    assert step.parent in seen and step.edge is not None
                    seen.add(step.node)

    def test_cardinality_order_starts_at_smallest(self, joiny_cn):
        tuple_sets, cn = joiny_cn
        steps = cardinality_join_order(cn, tuple_sets)
        smallest = min(tuple_sets.size(n.key) for n in cn.nodes)
        assert tuple_sets.size(cn.nodes[steps[0].node].key) == smallest

    def test_cardinality_order_deterministic(self, joiny_cn):
        tuple_sets, cn = joiny_cn
        assert cardinality_join_order(cn, tuple_sets) == cardinality_join_order(
            cn, tuple_sets
        )

    def test_full_prefix_identity_matches_canonical_code(self, joiny_cn):
        tuple_sets, cn = joiny_cn
        steps = cardinality_join_order(cn, tuple_sets)
        code = prefix_identity(cn, steps)
        assert code == cn.canonical_code()
        assert prefix_codes(cn, steps)[-1] == code

    def test_isomorphic_prefixes_share_codes(self, joiny_cn):
        tuple_sets, cn = joiny_cn
        # Relabel the CN; every plan prefix must canonicalise the same.
        perm = list(reversed(range(cn.size)))
        remap = {old: new for new, old in enumerate(perm)}
        clone = CandidateNetwork(
            [cn.nodes[i] for i in perm],
            [(remap[a], remap[b], e) for a, b, e in cn.edges],
        )
        assert sorted(
            prefix_codes(cn, cardinality_join_order(cn, tuple_sets))
        ) == sorted(
            prefix_codes(clone, cardinality_join_order(clone, tuple_sets))
        )


class TestMalformedCNs:
    def test_missing_edge_raises(self, joiny_cn):
        tuple_sets, cn = joiny_cn
        broken = CandidateNetwork(cn.nodes, cn.edges[:-1])
        with pytest.raises(SearchExecutionError, match="must be a tree"):
            evaluate_cn(broken, tuple_sets)

    def test_self_loop_edge_raises(self, joiny_cn):
        tuple_sets, cn = joiny_cn
        a, b, edge = cn.edges[0]
        broken = CandidateNetwork(
            cn.nodes, [(a, a, edge)] + list(cn.edges[1:])
        )
        with pytest.raises(SearchExecutionError, match="invalid endpoints"):
            evaluate_cn(broken, tuple_sets)

    def test_out_of_range_endpoint_raises(self, joiny_cn):
        tuple_sets, cn = joiny_cn
        a, b, edge = cn.edges[0]
        broken = CandidateNetwork(
            cn.nodes, [(a, 99, edge)] + list(cn.edges[1:])
        )
        with pytest.raises(SearchExecutionError, match="invalid endpoints"):
            bfs_join_order(broken)

    def test_disconnected_raises_instead_of_dropping_nodes(self, joiny_cn):
        # Right edge count, but a duplicated edge leaves a node
        # unreachable — the old BFS silently evaluated the fragment.
        tuple_sets, cn = joiny_cn
        a, b, edge = cn.edges[0]
        broken = CandidateNetwork(
            cn.nodes, [(a, b, edge)] + list(cn.edges[:-1])
        )
        with pytest.raises(SearchExecutionError, match="disconnected"):
            cardinality_join_order(broken, tuple_sets)



# ----------------------------------------------------------------------
# Exhaustive evaluation over one shared query context
# ----------------------------------------------------------------------
class TestSharedParity:
    """``all_results`` evaluates every CN of a query over one shared
    :class:`CNQueryContext` (one score table, one plan per CN): per CN
    it equals the CN evaluated over a context of its own and the
    definition."""

    @pytest.mark.parametrize("keywords", PRODUCT_QUERIES)
    def test_products_parity(self, product_db, keywords):
        index = InvertedIndex(product_db)
        tuple_sets, cns = _substrates(product_db, index, keywords)
        assert cns
        shared = _per_cn(cns, all_results(cns, tuple_sets))
        alone = _per_cn(
            cns, [(cn, joined) for cn in cns for joined in cn_results(cn, tuple_sets)]
        )
        definition = _per_cn(
            cns,
            [(cn, j) for cn in cns for j in definition_results(cn, tuple_sets)],
        )
        assert shared == alone == definition

    def test_require_distinct_prunes_repeats(self, biblio_setup):
        """A tuple never fills two nodes of one result: what the join
        predicates alone admit, minus every assignment repeating a tuple
        — through ``evaluate_cn`` and the shared context alike."""
        db, index = biblio_setup
        tuple_sets, cns = _substrates(db, index, ["xml", "query"])
        pruned = 0
        for cn in cns:
            strict = Counter(j.tuple_ids() for j in evaluate_cn(cn, tuple_sets))
            members = [
                [db.row(t) for t in tuple_sets.tuple_ids(node.key)] for node in cn.nodes
            ]
            loose = Counter(
                tuple((r.table.name, r.rowid) for r in rows)
                for rows in _assignments(members, cn.edges, False)
            )
            distinct = Counter(
                {ids: n for ids, n in loose.items() if len(set(ids)) == len(ids)}
            )
            assert strict == distinct
            pruned += sum(loose.values()) - sum(strict.values())
        assert pruned  # some CN joins one table twice and a tuple repeats
        for _, joined in all_results(cns, tuple_sets):
            ids = joined.tuple_ids()
            assert len(set(ids)) == len(ids)


# ----------------------------------------------------------------------
# Top-k: one heap shared by every shard
# ----------------------------------------------------------------------
class TestTopKShared:
    """The top-k heap every shard of a query offers into: its answer is
    the single engine's, partial under a budget, and independent of
    offer order."""

    @pytest.mark.parametrize("keywords", BIBLIO_QUERIES)
    def test_shared_matches_naive(self, biblio_setup, keywords):
        db, index = biblio_setup
        tuple_sets, cns = _substrates(db, index, keywords)
        naive = topk_naive(cns, tuple_sets, index, keywords, k=10)
        shared, _ = _shared_heap_topk(cns, tuple_sets, index, keywords, 10, workers=4)
        assert _topk_signature(shared) == _topk_signature(naive.results)

    @pytest.mark.parametrize("workers", [2, 4, 8])
    def test_parallel_matches_sequential(self, biblio_setup, workers):
        db, index = biblio_setup
        keywords = ["xml", "query"]
        tuple_sets, cns = _substrates(db, index, keywords)
        sequential = topk_global_pipeline(cns, tuple_sets, index, keywords, k=10)
        parallel, runs = _shared_heap_topk(
            cns, tuple_sets, index, keywords, 10, workers
        )
        assert _topk_signature(parallel) == _topk_signature(sequential.results)
        assert len(runs) == workers and sum(r.produced for r in runs) >= 10

    def test_budget_exhaustion_returns_partial(self, biblio_setup):
        db, index = biblio_setup
        keywords = ["xml", "query"]
        tuple_sets, cns = _substrates(db, index, keywords)
        full = topk_global_pipeline(cns, tuple_sets, index, keywords, k=10)
        budget = QueryBudget(max_candidates=3)
        partial = topk_global_pipeline(
            cns, tuple_sets, index, keywords, k=10, budget=budget
        )
        assert budget.exhausted
        assert partial.cns_executed < len(cns)
        assert len(partial.results) <= 3 < len(full.results)

    def test_heap_order_independent(self, biblio_setup):
        """Every candidate of a query offered at one tied score, forwards
        and backwards: the retained top-3 is the same — the content key
        decides, never the arrival order."""
        db, index = biblio_setup
        keywords = ["xml", "query"]
        tuple_sets, cns = _substrates(db, index, keywords)
        stats = JoinStats()
        entries = []
        for cursor in CNQueryContext(cns, tuple_sets, index, keywords).cursors():
            while not cursor.exhausted():
                batch = cursor.next_batch(stats)
                entries += [(cursor.plan, rowids) for _, rowids in batch]
        assert len(entries) > 3
        forward, backward = _TopKHeap(3), _TopKHeap(3)
        for plan, rowids in entries:
            forward.offer_rowids(1.0, plan, rowids)
        for plan, rowids in reversed(entries):
            backward.offer_rowids(1.0, plan, rowids)
        take = lambda heap: [
            (s, l, j.tuple_ids()) for s, l, j in heap.sorted_results()
        ]
        assert take(forward) == take(backward)


# ----------------------------------------------------------------------
# Incremental index / tuple-set maintenance
# ----------------------------------------------------------------------
class TestIncrementalIndex:
    @staticmethod
    def _insert_delta(db):
        db.insert("author", aid=901, name="delta xml author", affiliation=None)
        db.insert("author", aid=902, name="widom apprentice", affiliation=None)

    def test_refresh_matches_full_rebuild(self):
        db = tiny_bibliographic_db()
        index = InvertedIndex(db)
        self._insert_delta(db)
        patched = index.refresh()
        assert patched == 2
        fresh = InvertedIndex(db)
        assert index.vocabulary == fresh.vocabulary
        assert index.document_count == fresh.document_count
        for token in fresh.vocabulary:
            assert index.document_frequency(token) == fresh.document_frequency(
                token
            )
            assert index.idf(token) == pytest.approx(fresh.idf(token))
            assert set(index.matching_tuples_view(token)) == set(
                fresh.matching_tuples_view(token)
            )
            for tid in fresh.matching_tuples_view(token):
                assert index.term_frequency(tid, token) == fresh.term_frequency(
                    tid, token
                )

    def test_refresh_without_inserts_is_noop(self, tiny_db):
        index = InvertedIndex(tiny_db)
        vocab = index.vocabulary
        assert index.refresh() == 0
        assert index.vocabulary == vocab

    def test_tuple_sets_refresh_matches_rebuild(self):
        db = tiny_bibliographic_db()
        index = InvertedIndex(db)
        # Built BEFORE the inserts: the stale sets only know old rows.
        stale = TupleSets(db, index, ["widom", "xml"])
        self._insert_delta(db)
        index.refresh()
        created = stale.refresh()
        fresh = TupleSets(db, index, ["widom", "xml"])
        assert stale.non_free_keys() == fresh.non_free_keys()
        for key in fresh.non_free_keys():
            assert stale.tuple_ids(key) == fresh.tuple_ids(key)
        # Free sets are computed live and shrink as rows get matched.
        for key in fresh.non_free_keys():
            free_key = type(key)(key.table, frozenset())
            assert stale.tuple_ids(free_key) == fresh.tuple_ids(free_key)
        assert all(k in fresh.non_free_keys() for k in created)

    def test_tuple_sets_refresh_builds_stale_sets_lazily(self):
        db = tiny_bibliographic_db()
        index = InvertedIndex(db)
        sets = TupleSets(db, index, ["widom", "xml"])
        before = set(sets.non_free_keys())
        # A row containing BOTH keywords creates a brand-new key.
        db.insert("author", aid=903, name="widom xml tandem", affiliation=None)
        index.refresh()
        created = sets.refresh()
        assert created  # the {widom, xml} author set did not exist before
        assert set(sets.non_free_keys()) > before


class TestIncrementalEngine:
    def test_incremental_search_matches_fresh_engine(self):
        db = tiny_bibliographic_db()
        warm = KeywordSearchEngine(db)
        warm.search("widom xml", k=5)  # fill caches pre-insert
        db.insert("author", aid=910, name="xml widom junior", affiliation=None)
        warm_results = warm.search("widom xml", k=5)
        fresh = KeywordSearchEngine(db, enable_caches=False)
        fresh_results = fresh.search("widom xml", k=5)
        signature = lambda rs: [
            (round(r.score, 9), r.network, tuple(r.tuple_ids())) for r in rs
        ]
        assert signature(warm_results) == signature(fresh_results)
        assert warm.substrates.patches["applied"] >= 1
        assert warm.substrates.invalidations == 0

    def test_new_tuple_set_key_drops_cn_memos(self):
        db = tiny_bibliographic_db()
        engine = KeywordSearchEngine(db)
        engine.substrates.tuple_sets(["widom", "xml"])
        engine.substrates.candidate_networks(["widom", "xml"], 4)
        # This author matches BOTH keywords -> a new tuple-set key, so
        # the memoised CN list for that query is stale and must drop.
        db.insert("author", aid=911, name="widom xml oracle", affiliation=None)
        engine.substrates.tuple_sets(["widom", "xml"])
        assert engine.substrates.patches["cn_memos_dropped"] >= 1

    def test_sharing_counters_exposed(self):
        engine = KeywordSearchEngine(generate_bibliographic_db(seed=7))
        engine.search("xml query", k=5, method="schema")
        # The engine's executor probes the tables' own indexes: it counts
        # probes, the rowids they return and the partials its in-slice
        # bound drops, and has no build sides to share.
        sharing = engine.cache_stats()["sharing"]
        assert sharing == {
            "queries": 1,
            "joins_executed": sharing["joins_executed"],
            "tuples_read": sharing["tuples_read"],
            "partials_dropped": sharing["partials_dropped"],
        }
        assert sharing["joins_executed"] > 0
        assert sharing["tuples_read"] > 0
        assert sharing["partials_dropped"] > 0

    @pytest.mark.parametrize("shards", [1, 4])
    def test_execution_modes_agree(self, shards):
        """One executor: the engine and the scatter both equal the
        brute-force oracle (every CN's results from the definition, one
        full sort)."""
        from repro.sharding import ShardedSearchEngine

        db = generate_bibliographic_db(seed=7)
        single = KeywordSearchEngine(db)
        sharded = ShardedSearchEngine(db, n_shards=shards)
        signature = lambda rs: [
            (r.score, r.network, tuple(r.tuple_ids())) for r in rs
        ]
        for text in ("xml query", "john database", "widom xml"):
            keywords = list(single.parse(text).keywords)
            exhaustive = oracle(
                single.substrates.tuple_sets(keywords),
                single.substrates.candidate_networks(keywords, single.max_cn_size),
                single.index,
                keywords,
            )
            expected = [
                (score, label, tuple(TupleId(*t) for t in ids))
                for score, label, ids in exhaustive[:5]
            ]
            assert signature(single.search(text, k=5)) == expected
            assert signature(sharded.search(text, k=5)) == expected
