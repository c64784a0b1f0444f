"""Tests for spatial mCK search, database selection and cross-database
(Kite-style) search — the slide-168 'other KWS systems'."""

import pytest

from repro.datasets.bibliographic import bibliographic_schema
from repro.distributed.kite import (
    CrossDatabase,
    InterDbLink,
    cross_search,
    spans_databases,
)
from repro.distributed.selection import DatabaseSummary, rank_databases
from repro.relational.database import Database
from repro.spatial.mck import MckStats, diameter, mck_exhaustive, mck_grid
from repro.spatial.objects import SpatialDatabase, SpatialObject, generate_spatial_db


class TestSpatialObjects:
    def test_grid_radius_query(self):
        objs = [SpatialObject(i, float(i), 0.0, "x") for i in range(10)]
        db = SpatialDatabase(objs, cell_size=2.0)
        near = db.objects_near(0.0, 0.0, 3.0)
        assert {o.oid for o in near} == {0, 1, 2, 3}

    def test_postings(self):
        db = generate_spatial_db(seed=43)
        assert db.matching("cafe")
        assert db.matching("zebra") == []

    def test_invalid_cell_size(self):
        with pytest.raises(ValueError):
            SpatialDatabase([], cell_size=0)

    def test_diameter(self):
        a = SpatialObject(0, 0, 0, "x")
        b = SpatialObject(1, 3, 4, "y")
        assert diameter([a, b]) == pytest.approx(5.0)
        assert diameter([a]) == 0.0


class TestMck:
    def test_grid_matches_exhaustive(self):
        db = generate_spatial_db(n_objects=40, seed=43)
        keywords = ["cafe", "museum", "park"]
        exact = mck_exhaustive(db, keywords)
        fast = mck_grid(db, keywords)
        assert exact is not None and fast is not None
        assert fast[1] == pytest.approx(exact[1])

    def test_finds_planted_cluster(self):
        db = generate_spatial_db(n_objects=100, seed=43, planted_cluster=True)
        keywords = ["cafe", "museum", "park", "hotel", "garage"]
        result = mck_grid(db, keywords)
        assert result is not None
        group, d = result
        # The planted cluster has diameter < 0.25.
        assert d < 0.5
        assert len(group) == len(keywords)

    def test_group_covers_all_keywords(self):
        db = generate_spatial_db(n_objects=60, seed=7)
        keywords = ["cafe", "park"]
        result = mck_grid(db, keywords)
        assert result is not None
        group, _ = result
        covered = set()
        for obj in group:
            covered |= obj.tokens()
        assert set(keywords) <= covered

    def test_missing_keyword(self):
        db = generate_spatial_db(seed=43)
        assert mck_grid(db, ["cafe", "zzz"]) is None
        assert mck_exhaustive(db, ["cafe", "zzz"]) is None

    def test_pruning_counts(self):
        db = generate_spatial_db(n_objects=100, seed=43)
        stats = MckStats()
        mck_grid(db, ["cafe", "museum", "park"], stats=stats)
        groups = [len(db.matching(k)) for k in ["cafe", "museum", "park"]]
        full = groups[0] * groups[1] * groups[2]
        assert stats.combinations_checked < full

    def test_combination_guard(self):
        db = generate_spatial_db(n_objects=100, seed=43)
        with pytest.raises(ValueError):
            mck_exhaustive(db, ["cafe", "museum", "park"], max_combinations=10)


def _mini_db(rows):
    """A bibliographic mini-db from (author, title) pairs — each author
    writes the paired paper."""
    db = Database(bibliographic_schema(with_cite=False))
    db.insert("conference", cid=0, name="venue", year=2000, location=None)
    for i, (author, title) in enumerate(rows):
        db.insert("author", aid=i, name=author)
        db.insert("paper", pid=i, title=title, abstract=None, cid=0)
        db.insert("write", wid=i, aid=i, pid=i)
    return db


class TestDatabaseSelection:
    def test_connected_db_outranks_disconnected(self):
        # DB "joined": widom writes an xml paper (connected).
        joined = _mini_db([("widom", "xml search"), ("smith", "graphs")])
        # DB "split": widom exists, xml exists, but in unrelated rows.
        split = _mini_db([("widom", "btrees"), ("smith", "xml search")])
        summaries = [
            DatabaseSummary.build("joined", joined),
            DatabaseSummary.build("split", split),
        ]
        ranked = rank_databases(summaries, ["widom", "xml"])
        assert ranked
        assert ranked[0][0].name == "joined"

    def test_missing_keyword_disqualifies(self):
        db = _mini_db([("widom", "xml search")])
        summary = DatabaseSummary.build("only", db)
        assert rank_databases([summary], ["widom", "zebra"]) == []

    def test_coverage(self):
        db = _mini_db([("widom", "xml search")])
        summary = DatabaseSummary.build("d", db)
        assert summary.coverage(["widom", "xml"]) == 1.0
        assert summary.coverage(["widom", "zzz"]) == 0.5

    def test_pair_distance_recorded(self):
        db = _mini_db([("widom", "xml search")])
        summary = DatabaseSummary.build("d", db)
        # widom (author) and xml (paper) are 2 FK hops apart via write.
        assert summary.pair_distance[frozenset(("widom", "xml"))] == 2


class TestKite:
    def _federation(self):
        pubs = _mini_db([("jennifer widom", "xml search")])
        # Second database: a personnel DB with matching person names.
        from repro.relational.schema import Column, Schema, TableSchema

        hr_schema = Schema(
            [
                TableSchema(
                    "person",
                    (
                        Column("id", "int"),
                        Column("fullname", "str", text=True),
                        Column("office", "str", nullable=True, text=True),
                    ),
                    primary_key="id",
                )
            ]
        )
        hr = Database(hr_schema)
        hr.insert("person", id=0, fullname="jennifer widom", office="gates 432")
        hr.insert("person", id=1, fullname="mark smith", office="gates 100")
        links = [
            InterDbLink("pubs", "author", "name", "hr", "person", "fullname")
        ]
        return CrossDatabase({"pubs": pubs, "hr": hr}, links)

    def test_link_edges_created(self):
        federation = self._federation()
        from repro.relational.database import TupleId

        widom_author = TupleId("pubs/author", 0)
        link = federation.graph.edge_weight(widom_author, TupleId("hr/person", 0))
        assert link is not None

    def test_cross_search_spans_databases(self):
        """Q = {xml, gates}: 'xml' lives in pubs, 'gates' in hr — the
        answer must join across databases through the person link."""
        federation = self._federation()
        result = cross_search(federation, ["xml", "gates"], k=3)
        assert result.trees
        top = result.trees[0]
        assert spans_databases(list(top.nodes))

    def test_single_db_answer_stays_local(self):
        federation = self._federation()
        result = cross_search(federation, ["widom", "xml"], k=1)
        assert result.trees
        assert not spans_databases(list(result.trees[0].nodes))

    def test_missing_keyword(self):
        federation = self._federation()
        assert cross_search(federation, ["xml", "zzz"]).trees == []

    def test_matching_tuples_sorted_and_stable(self):
        """Lookups return the same globally sorted list every time,
        re-merging cached per-database runs instead of re-sorting."""
        federation = self._federation()
        first = federation.matching_tuples("widom")
        assert first == sorted(first)
        assert first == federation.matching_tuples("widom")
        # The qualified runs are cached per keyword after the first
        # lookup, one sorted run per member database.
        runs = federation._qualified["widom"]
        assert len(runs) == len(federation.databases)
        for run in runs:
            assert run == sorted(run)
        # Cache identity: repeat lookups reuse the same run objects.
        assert federation._qualified["widom"] is runs

    def test_matching_tuples_merges_across_databases(self):
        federation = self._federation()
        tids = federation.matching_tuples("widom")
        prefixes = {tid.table.split("/", 1)[0] for tid in tids}
        assert prefixes == {"pubs", "hr"}
        # Equivalent to the brute-force qualified union, sorted.
        from repro.distributed.kite import _qualify

        expected = sorted(
            _qualify(name, tid)
            for name, index in federation.indexes.items()
            for tid in index.matching_tuples("widom")
        )
        assert tids == expected
