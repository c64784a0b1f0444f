"""Sharded scatter-gather engine: partitioning, parity, resilience."""

import json
import os
import subprocess
import sys

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.core.factory import build_engine
from repro.datasets.bibliographic import (
    generate_bibliographic_db,
    tiny_bibliographic_db,
)
from repro.datasets.products import generate_product_db
from repro.relational.database import TupleId
from repro.resilience.budget import QueryBudget
from repro.resilience.degradation import KNOWN_METHODS
from repro.resilience.failpoints import FAILPOINTS
from repro.sharding import (
    HashPartitioner,
    SchemaAffinityPartitioner,
    ShardedSearchEngine,
    build_shards,
    make_partitioner,
)

from .test_schema_executor import pool_shaped_queries


def _signature(results):
    """Byte-comparable view of a result list."""
    return [(r.score, r.network, r.tuple_ids()) for r in results]


@pytest.fixture(scope="module")
def biblio_db():
    return generate_bibliographic_db(
        n_authors=20, n_conferences=4, n_papers=40, seed=7
    )


@pytest.fixture(scope="module")
def products_db():
    return generate_product_db(n_products=60, seed=13)


@pytest.fixture(scope="module")
def biblio_single(biblio_db):
    return KeywordSearchEngine(biblio_db)


@pytest.fixture(scope="module")
def biblio_sharded(biblio_db):
    engines = {
        n: ShardedSearchEngine(biblio_db, n_shards=n, partitioner="affinity")
        for n in (1, 2, 4, 8)
    }
    yield engines
    for engine in engines.values():
        engine.close()


# ----------------------------------------------------------------------
# Partitioners
# ----------------------------------------------------------------------
class TestPartitioners:
    def test_hash_assignment_deterministic(self, biblio_db):
        a = HashPartitioner(4).assign(biblio_db)
        b = HashPartitioner(4).assign(biblio_db)
        assert a == b
        assert set(a.values()) <= set(range(4))
        assert len(a) == biblio_db.size()

    def test_hash_roughly_balanced(self, biblio_db):
        homes = HashPartitioner(4).assign(biblio_db)
        sizes = [list(homes.values()).count(i) for i in range(4)]
        assert min(sizes) > 0
        assert max(sizes) / min(sizes) < 2.5

    def test_affinity_coresidency(self, biblio_db):
        """A paper and all its write/cite rows share a shard."""
        homes = SchemaAffinityPartitioner(4).assign(biblio_db)
        for table in ("write", "cite"):
            for row in biblio_db.rows(table):
                tid = TupleId(table, row.rowid)
                parents = biblio_db.references_of(row)
                assert parents
                parent_homes = {
                    homes[TupleId(p.table.name, p.rowid)] for p, _ in parents
                }
                # The routing FK's parent is among the referenced rows.
                assert homes[tid] in parent_homes

    def test_affinity_cuts_fewer_edges_than_hash(self, biblio_db):
        hash_set = build_shards(biblio_db, HashPartitioner(4))
        affinity_set = build_shards(biblio_db, SchemaAffinityPartitioner(4))
        assert affinity_set.cut_edges < hash_set.cut_edges
        assert affinity_set.total_edges == hash_set.total_edges

    def test_assign_one_matches_bulk_assignment(self, biblio_db):
        for partitioner in (HashPartitioner(4), SchemaAffinityPartitioner(4)):
            homes = partitioner.assign(biblio_db)
            probe = dict(homes)
            for tid in list(homes)[:25]:
                assert (
                    partitioner.assign_one(biblio_db, tid, probe) == homes[tid]
                )

    def test_make_partitioner(self):
        assert make_partitioner("hash", 2).name == "hash"
        assert make_partitioner("affinity", 2).name == "affinity"
        custom = HashPartitioner(3)
        assert make_partitioner(custom, 99) is custom
        with pytest.raises(ValueError):
            make_partitioner("round-robin", 2)

    def test_partition_tokens_distinct(self):
        assert HashPartitioner(4).token != HashPartitioner(8).token
        assert HashPartitioner(4).token != SchemaAffinityPartitioner(4).token


# ----------------------------------------------------------------------
# Top-k parity with the single engine (the tentpole invariant)
# ----------------------------------------------------------------------
BIBLIO_QUERIES = ["database keyword search", "john conference", "query xml"]
PRODUCT_QUERIES = ["lenovo laptop", "light small", "ibm"]


class TestParity:
    @pytest.mark.parametrize("method", ["schema", "index_only", "banks"])
    @pytest.mark.parametrize("n_shards", [1, 2, 4, 8])
    def test_biblio_parity(
        self, biblio_single, biblio_sharded, method, n_shards
    ):
        for query in BIBLIO_QUERIES:
            exact = biblio_single.search(query, k=10, method=method)
            got = biblio_sharded[n_shards].search(
                query, k=10, method=method, use_cache=False
            )
            assert _signature(got) == _signature(exact)
            assert not got.degraded

    @pytest.mark.parametrize("method", ["banks2", "distinct_root"])
    def test_biblio_parity_routed(self, biblio_single, biblio_sharded, method):
        for query in BIBLIO_QUERIES[:2]:
            exact = biblio_single.search(query, k=10, method=method)
            got = biblio_sharded[4].search(
                query, k=10, method=method, use_cache=False
            )
            assert _signature(got) == _signature(exact)

    @pytest.mark.parametrize("method", ["schema", "index_only", "banks"])
    @pytest.mark.parametrize("n_shards", [1, 2, 4, 8])
    @pytest.mark.parametrize("partitioner", ["hash", "affinity"])
    def test_products_parity(self, products_db, method, n_shards, partitioner):
        single = KeywordSearchEngine(products_db)
        with ShardedSearchEngine(
            products_db, n_shards=n_shards, partitioner=partitioner
        ) as sharded:
            for query in PRODUCT_QUERIES:
                exact = single.search(query, k=10, method=method)
                got = sharded.search(query, k=10, method=method, use_cache=False)
                assert _signature(got) == _signature(exact)

    @pytest.mark.parametrize("method", ["steiner", "ease"])
    def test_tiny_parity_expensive_methods(self, method):
        db = tiny_bibliographic_db()
        single = KeywordSearchEngine(db)
        with ShardedSearchEngine(db, n_shards=2) as sharded:
            exact = single.search("widom database", k=3, method=method)
            got = sharded.search(
                "widom database", k=3, method=method, use_cache=False
            )
            assert _signature(got) == _signature(exact)

    def test_hash_partitioner_parity_biblio(self, biblio_db, biblio_single):
        with ShardedSearchEngine(
            biblio_db, n_shards=4, partitioner="hash"
        ) as sharded:
            for query in BIBLIO_QUERIES:
                exact = biblio_single.search(query, k=10, method="schema")
                got = sharded.search(query, k=10, use_cache=False)
                assert _signature(got) == _signature(exact)

    def test_empty_query_and_unknown_method(self, biblio_sharded):
        from repro.resilience.errors import QueryParseError

        assert biblio_sharded[4].search("", k=5) == []
        with pytest.raises(QueryParseError):
            biblio_sharded[4].search("database", method="quantum")


# ----------------------------------------------------------------------
# Upper-bound pruning
# ----------------------------------------------------------------------
class TestPruning:
    def test_threshold_prunes_candidates(self, biblio_db, biblio_single):
        """Shards skip anchor slots via the global k-th threshold."""
        with ShardedSearchEngine(
            biblio_db, n_shards=4, partitioner="affinity"
        ) as sharded:
            query = "database keyword search"
            got = sharded.search(query, k=3, use_cache=False)
            exact = biblio_single.search(query, k=3)
            assert _signature(got) == _signature(exact)
            snap = sharded.metrics.snapshot()
            assert snap["shard.pruned"] > 0
            # Pruning must actually cut work: the shards together
            # evaluated fewer candidates than they skipped + evaluated.
            assert snap["shard.evaluated"] > 0

    def test_trace_tree_shows_scatter_gather(self, biblio_db):
        with ShardedSearchEngine(biblio_db, n_shards=4, trace=True) as sharded:
            results = sharded.search("database keyword", k=5, use_cache=False)
            trace = results.trace
            assert trace is not None
            scatter = trace.find("scatter")
            assert scatter is not None
            names = sorted(c.name for c in scatter.children)
            assert names == [f"shard[{i}]" for i in range(4)]
            assert trace.find("gather") is not None
            assert all(
                "pruned" in c.counters or "error" in c.tags
                for c in scatter.children
            )

    def test_routed_rung_trace_has_its_children(self):
        """A routed rung runs the local executor under its ``route``
        span, so the span shows the one-engine ``branch → …`` tree; the
        answer is byte-identical traced and untraced."""
        engine = build_engine(tiny_bibliographic_db(), shards=2)
        traced = engine.search("widom xml", method="banks", trace=True, use_cache=False)
        route = traced.trace.find("route")
        assert [c.name for c in route.children] == ["branch"]
        branch = route.children[0]
        assert [c.name for c in branch.children] == [
            "substrate_build", "evaluate", "score",
        ]
        untraced = engine.search("widom xml", method="banks", use_cache=False)
        assert json.dumps(traced.to_dict()) == json.dumps(untraced.to_dict())
        assert traced.to_dict()["count"] > 0


# ----------------------------------------------------------------------
# Shards run in order: exact work counters, one span tree
# ----------------------------------------------------------------------
_WORK_PROBE = """
import hashlib, json, sys
from repro.datasets.bibliographic import generate_bibliographic_db
from repro.sharding import ShardedSearchEngine

queries = json.load(sys.stdin)
db = generate_bibliographic_db(seed=7)
out = {}
for n in (2, 4):
    engine = ShardedSearchEngine(db, n_shards=n)
    laps = []
    for _ in range(2):
        before = engine.metrics.snapshot()
        answers = [
            engine.search(q, k=10, use_cache=False).to_dict() for q in queries
        ]
        after = engine.metrics.snapshot()
        work = {
            name: after[name] - before.get(name, 0)
            for name in sorted(after)
            if name in ("shard.evaluated", "shard.pruned") or name.startswith("sharing.")
        }
        digest = hashlib.sha256(json.dumps(answers).encode()).hexdigest()
        laps.append({"answers": digest, "work": work})
    out[n] = laps
print(json.dumps(out))
"""


class TestShardsRunInOrder:
    def test_work_counters_are_exact_across_runs_and_hash_seeds(self):
        """Shard 0 … N-1 run one after the other, so each shard prunes
        against the same k-th entry every time: two laps of the 80-query
        Zipf-shaped pool on 2 and 4 shards give identical answers and
        identical ``shard.evaluated`` / ``shard.pruned`` / ``sharing.*``
        counts, under ``PYTHONHASHSEED`` 0 and 1 alike."""
        queries = pool_shaped_queries(generate_bibliographic_db(seed=7))
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        outcomes = []
        for seed in ("0", "1"):
            done = subprocess.run(
                [sys.executable, "-c", _WORK_PROBE],
                input=json.dumps(queries),
                capture_output=True,
                text=True,
                env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
                timeout=120,
            )
            assert done.returncode == 0, done.stderr
            outcomes.append(json.loads(done.stdout))
        for laps in outcomes[0].values():
            first, second = laps
            assert first == second
            assert first["work"]["shard.pruned"] > 0
            assert first["work"]["sharing.queries"] == len(queries)
        assert outcomes[1] == outcomes[0]

    def test_traced_shard_spans_nest_under_scatter_in_shard_order(self, biblio_db):
        with ShardedSearchEngine(biblio_db, n_shards=4) as sharded:
            budget = QueryBudget()
            budget.request_id = "r7"
            traced = sharded.search(
                "database keyword", k=5, budget=budget, trace=True, use_cache=False
            )
            scatter = traced.trace.find("scatter")
            assert [c.name for c in scatter.children] == [
                f"shard[{i}]" for i in range(4)
            ]
            for i, shard_span in enumerate(scatter.children):
                assert shard_span.tags["shard"] == i
                assert shard_span.tags["request_id"] == "r7"
            untraced = sharded.search("database keyword", k=5, use_cache=False)
            assert json.dumps(traced.to_dict()) == json.dumps(untraced.to_dict())
            assert traced.to_dict()["count"] > 0


# ----------------------------------------------------------------------
# Fault isolation
# ----------------------------------------------------------------------
class TestResilience:
    def test_failpoint_killed_shard_degrades(self, biblio_db):
        with ShardedSearchEngine(biblio_db, n_shards=4, trace=True) as sharded:
            FAILPOINTS.activate(
                "shard.execute", exc=RuntimeError("shard died"), key=2
            )
            try:
                results = sharded.search("database keyword", k=5, use_cache=False)
            finally:
                FAILPOINTS.clear()
            assert results.degraded
            assert "shard 2" in results.degraded_reason
            # The failure is visible in the scatter-gather span tree.
            scatter = results.trace.find("scatter")
            failed = [c for c in scatter.children if c.name == "shard[2]"]
            assert failed and failed[0].tags.get("error") == "RuntimeError"
            # The other shards still contributed results.
            assert len(results) > 0

    def test_failing_shard_degrades_every_query_then_heals(
        self, biblio_db, biblio_single
    ):
        """No breaker remembers a failed shard: it degrades each query
        while it fails, and the first query after it heals is exact."""
        exact = biblio_single.search("database keyword", k=5)
        with ShardedSearchEngine(biblio_db, n_shards=4) as sharded:
            FAILPOINTS.activate(
                "shard.execute", exc=RuntimeError("boom"), key=1
            )
            try:
                for _ in range(4):
                    got = sharded.search("database keyword", k=5, use_cache=False)
                    assert got.degraded
                    assert got.degraded_reason == "shard 1: RuntimeError: boom"
            finally:
                FAILPOINTS.clear()
            assert FAILPOINTS.hits("shard.execute") == 4
            assert sharded.metrics.snapshot()["shard.failures"] == 4
            healed = sharded.search("database keyword", k=5, use_cache=False)
            assert not healed.degraded
            assert _signature(healed) == _signature(exact)

    def test_budget_timeout_degrades_not_hangs(self, biblio_db):
        with ShardedSearchEngine(biblio_db, n_shards=4) as sharded:
            results = sharded.search(
                "database keyword search", k=5, timeout_ms=0.0001
            )
            assert results.degraded
            assert results.degraded_reason

    def test_cancelled_budget_scatters_no_work(self, biblio_db):
        """The caller's budget reaches the shards: one poisoned before
        the call degrades the answer and no shard evaluates anything."""
        from repro.resilience.budget import QueryBudget

        with ShardedSearchEngine(biblio_db, n_shards=4) as sharded:
            for method in ("schema", "index_only", "banks"):
                budget = QueryBudget(timeout_ms=60_000)
                budget.poison("client disconnected")
                results = sharded.search(
                    "database keyword", k=5, method=method, budget=budget
                )
                assert results.degraded, method
                assert "client disconnected" in results.degraded_reason
            assert sharded.metrics.snapshot().get("shard.evaluated", 0) == 0

    def test_routed_banks_is_exact_when_every_slot_fails(
        self, biblio_db, biblio_single
    ):
        """A routed rung is the coordinator's own computation on the
        calling thread: a fault on every shard slot never touches it."""
        with ShardedSearchEngine(biblio_db, n_shards=4) as sharded:
            FAILPOINTS.activate("shard.execute", exc=RuntimeError("dead slot"))
            try:
                got = sharded.search(
                    "john database", k=5, method="banks", use_cache=False
                )
            finally:
                FAILPOINTS.clear()
            exact = biblio_single.search("john database", k=5, method="banks")
            assert _signature(got) == _signature(exact) and len(got) > 0
            assert not got.degraded
            assert FAILPOINTS.hits("shard.execute") == 0

    def test_routed_failure_is_not_a_shard_failure(self, biblio_db, biblio_single):
        """A routed rung is the coordinator's computation: failing, it
        runs once per query, degrades that answer and leaves the
        scattered rungs exact."""
        with ShardedSearchEngine(biblio_db, n_shards=4) as sharded:
            FAILPOINTS.activate(
                "engine.method", exc=RuntimeError("rung broke"), key="banks"
            )
            try:
                for _ in range(3):
                    got = sharded.search(
                        "john conference", k=5, method="banks", use_cache=False
                    )
                    assert got.degraded and "rung broke" in got.degraded_reason
                assert FAILPOINTS.hits("engine.method") == 3
            finally:
                FAILPOINTS.clear()
            healthy = sharded.search("database keyword", k=5, use_cache=False)
            exact = biblio_single.search("database keyword", k=5)
            assert _signature(healthy) == _signature(exact)
            assert not healthy.degraded

    def test_degraded_results_not_cached(self, biblio_db):
        with ShardedSearchEngine(biblio_db, n_shards=4) as sharded:
            FAILPOINTS.activate(
                "shard.execute", exc=RuntimeError("flaky"), key=3, times=1
            )
            try:
                first = sharded.search("database keyword", k=5)
            finally:
                FAILPOINTS.clear()
            assert first.degraded
            second = sharded.search("database keyword", k=5)
            assert not second.degraded

    def test_per_shard_metrics_exposed(self, biblio_db):
        with ShardedSearchEngine(biblio_db, n_shards=2) as sharded:
            sharded.search("database keyword", k=5, use_cache=False)
            snap = sharded.metrics.snapshot()
            assert snap["shard.latency_ms"]["count"] == 2
            assert snap["shard.count"] == 2
            assert "shard.pruned" in snap


# ----------------------------------------------------------------------
# Result cache
# ----------------------------------------------------------------------
class TestShardedCache:
    def test_cache_key_includes_shard_config(self, biblio_db):
        with ShardedSearchEngine(biblio_db, n_shards=4) as sharded:
            key = sharded._query_key("database keyword", "schema", 5)
            assert sharded.shards.token in key

    def test_cache_hit_serves_clone(self, biblio_db):
        with ShardedSearchEngine(biblio_db, n_shards=2) as sharded:
            first = sharded.search("database keyword", k=5)
            second = sharded.search("database keyword", k=5)
            assert _signature(first) == _signature(second)
            assert first is not second
            snap = sharded.metrics.snapshot()
            assert snap["shard_query.cache_hits"] == 1

    def test_cached_answer_is_byte_identical_and_costs_every_shard(self, biblio_db):
        """A budgeted miss publishes the answer with the work of the
        coordinator *and* its shard forks; a hit serves the same bytes
        an uncached search computes."""
        queries = ("database keyword", "john database", "xml query search")
        with ShardedSearchEngine(biblio_db, n_shards=2) as sharded:
            for method in ("schema", "index_only", "banks"):
                for text in queries:
                    budget = QueryBudget(timeout_ms=60_000)
                    miss = sharded.search(text, k=5, method=method, budget=budget)
                    assert miss and not miss.degraded
                    key = sharded._query_key(text, method, 5)
                    _, cost = sharded._result_cache.peek(key)
                    assert budget._forks  # one per shard (or the routed slot)
                    forks = [f.spent() for f in budget._forks]
                    for i in range(3):
                        assert cost[i] >= sum(f[i] for f in forks), (text, method)
                    assert cost == budget.spent()
                    hit = sharded.search(
                        text, k=5, method=method, budget=QueryBudget(timeout_ms=60_000)
                    )
                    uncached = sharded.search(text, k=5, method=method, use_cache=False)
                    assert json.dumps(hit.to_dict()) == json.dumps(uncached.to_dict())
                    assert json.dumps(miss.to_dict()) == json.dumps(hit.to_dict())
            snap = sharded.metrics.snapshot()
            assert snap["shard_query.cache_hits"] == 3 * len(queries)

    def test_shard_spans_carry_the_request_id(self, biblio_db):
        with ShardedSearchEngine(biblio_db, n_shards=2) as sharded:
            for method in ("schema", "banks"):
                budget = QueryBudget()
                budget.request_id = "r1"
                results = sharded.search(
                    "database keyword", k=5, method=method, budget=budget, trace=True
                )
                spans = list(results.trace.spans())
                # A scattered rung tags each shard span; a routed one
                # runs at the coordinator, under its one route span.
                prefix = "shard[" if method == "schema" else "route"
                tagged = [s for s in spans if s.name.startswith(prefix)]
                assert tagged, method
                assert results.trace.root.tags["request_id"] == "r1"
                assert all(s.tags["request_id"] == "r1" for s in tagged)
            # No id, no tag.
            untagged = sharded.search("john conference", k=5, trace=True)
            assert all(
                "request_id" not in s.tags for s in untagged.trace.spans()
            )


# ----------------------------------------------------------------------
# Incremental maintenance: new rows get a home, nothing is copied
# ----------------------------------------------------------------------
def _insert_author_paper_write(db):
    cid = next(iter(db.rows("conference")))["cid"]
    return [
        db.insert("author", aid=9001, name="zanzibar unique"),
        db.insert("paper", pid=9002, title="zanzibar databases", cid=cid),
        db.insert("write", wid=9003, aid=9001, pid=9002),
    ]


class TestRefreshRouting:
    def test_construction_copies_no_rows(self, biblio_db, monkeypatch):
        """A shard is an ownership predicate: building the engine and
        homing a new row insert into no database but the caller's."""
        from repro.relational.database import Database

        inserts = []
        real_insert = Database.insert

        def counting_insert(self, *args, **kwargs):
            inserts.append(self)
            return real_insert(self, *args, **kwargs)

        monkeypatch.setattr(Database, "insert", counting_insert)
        db = generate_bibliographic_db(
            n_authors=20, n_conferences=4, n_papers=40, seed=7
        )
        generated = len(inserts)
        with ShardedSearchEngine(db, n_shards=4) as sharded:
            sharded.search("database", k=3, use_cache=False)
            _insert_author_paper_write(db)
            sharded.refresh()
        assert len(inserts) == generated + 3
        assert all(target is db for target in inserts)

    def test_insert_routes_to_owning_shard_only(self):
        from repro.durability import fsck

        for partitioner in ("hash", "affinity"):
            db = generate_bibliographic_db(
                n_authors=20, n_conferences=4, n_papers=40, seed=7
            )
            with ShardedSearchEngine(
                db, n_shards=4, partitioner=partitioner
            ) as sharded:
                sharded.search("database", k=3, use_cache=False)
                before = dict(sharded.shards.homes)
                new = _insert_author_paper_write(db)
                sharded.refresh()
                homes = sharded.shards.homes
                # Every tuple has exactly one home; only the new rows'
                # homes are new.
                assert sorted(homes) == sorted(db.all_tuple_ids())
                assert {
                    t: h for t, h in homes.items() if t not in new
                } == before
                for tid in new:
                    owners = [s.shard_id for s in sharded.shards if s.owns(tid)]
                    assert owners == [homes[tid]]
                assert sum(sharded.shard_stats()["home_sizes"]) == db.size()
                report = fsck(sharded)
                assert report.ok, report.problems

    def test_search_parity_after_inserts(self):
        db = generate_bibliographic_db(
            n_authors=20, n_conferences=4, n_papers=40, seed=7
        )
        engines = [
            ShardedSearchEngine(db, n_shards=n, partitioner="affinity")
            for n in (1, 2, 4)
        ]
        try:
            for sharded in engines:
                sharded.search("database", k=3, use_cache=False)
            _insert_author_paper_write(db)
            single = KeywordSearchEngine(db)
            for method in KNOWN_METHODS:
                exact = single.search("zanzibar", k=5, method=method)
                assert len(exact) > 0, method
                for sharded in engines:
                    got = sharded.search(
                        "zanzibar", k=5, method=method, use_cache=False
                    )
                    assert _signature(got) == _signature(exact), method
                    assert not got.degraded
        finally:
            for sharded in engines:
                sharded.close()
