"""Unit tests for the relational substrate."""

import pytest

from repro.index.inverted import InvertedIndex
from repro.relational.database import Database, TupleId
from repro.relational.executor import JoinedRow
from repro.relational.schema import (
    Column,
    ForeignKey,
    Schema,
    SchemaError,
    TableSchema,
)
from repro.relational.schema_graph import SchemaGraph
from repro.schema_search.candidate_networks import CandidateNetwork, CNNode
from repro.schema_search.evaluate import evaluate_cn
from repro.schema_search.tuple_sets import TupleSetKey, TupleSets


def make_schema():
    return Schema(
        [
            TableSchema(
                "a",
                (Column("id", "int"), Column("name", "str", text=True)),
                primary_key="id",
            ),
            TableSchema(
                "b",
                (
                    Column("id", "int"),
                    Column("a_id", "int", nullable=True),
                    Column("note", "str", nullable=True, text=True),
                ),
                primary_key="id",
                foreign_keys=(ForeignKey("a_id", "a", "id"),),
            ),
        ]
    )


class TestSchema:
    def test_column_type_validation(self):
        col = Column("x", "int")
        assert col.validate(3) == 3
        with pytest.raises(SchemaError):
            col.validate("nope")
        with pytest.raises(SchemaError):
            col.validate(True)  # bools are not ints here

    def test_nullable(self):
        with pytest.raises(SchemaError):
            Column("x", "int").validate(None)
        assert Column("x", "int", nullable=True).validate(None) is None

    def test_unknown_dtype_rejected(self):
        with pytest.raises(SchemaError):
            Column("x", "bool")

    def test_pk_must_exist(self):
        with pytest.raises(SchemaError):
            TableSchema("t", (Column("a"),), primary_key="missing")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", (Column("a"), Column("a")), primary_key="a")

    def test_fk_must_reference_existing_table(self):
        with pytest.raises(SchemaError):
            Schema(
                [
                    TableSchema(
                        "t",
                        (Column("id", "int"), Column("x", "int")),
                        primary_key="id",
                        foreign_keys=(ForeignKey("x", "ghost", "id"),),
                    )
                ]
            )

    def test_fk_must_reference_primary_key(self):
        with pytest.raises(SchemaError):
            Schema(
                [
                    TableSchema(
                        "a",
                        (Column("id", "int"), Column("other", "int")),
                        primary_key="id",
                    ),
                    TableSchema(
                        "b",
                        (Column("id", "int"), Column("a_ref", "int")),
                        primary_key="id",
                        foreign_keys=(ForeignKey("a_ref", "a", "other"),),
                    ),
                ]
            )

    def test_relationship_detection(self):
        schema = Schema(
            [
                TableSchema("x", (Column("id", "int"),), primary_key="id"),
                TableSchema("y", (Column("id", "int"),), primary_key="id"),
                TableSchema(
                    "link",
                    (
                        Column("id", "int"),
                        Column("x_id", "int"),
                        Column("y_id", "int"),
                    ),
                    primary_key="id",
                    foreign_keys=(
                        ForeignKey("x_id", "x", "id"),
                        ForeignKey("y_id", "y", "id"),
                    ),
                ),
            ]
        )
        assert schema.table("link").is_relationship()
        assert not schema.table("x").is_relationship()
        assert set(schema.entity_tables()) == {"x", "y"}
        assert schema.relationship_tables() == ["link"]


class TestTable:
    def test_insert_and_lookup(self):
        db = Database(make_schema())
        db.insert("a", id=1, name="alpha")
        db.insert("a", id=2, name="beta")
        db.insert("b", id=10, a_id=1, note="points to alpha")
        tbl = db.table("b")
        assert len(tbl) == 1
        assert tbl.lookup("a_id", 1)[0]["note"] == "points to alpha"
        assert tbl.lookup("a_id", 99) == []

    def test_duplicate_pk_rejected(self):
        db = Database(make_schema())
        db.insert("a", id=1, name="x")
        with pytest.raises(SchemaError):
            db.insert("a", id=1, name="y")

    def test_unknown_column_rejected(self):
        db = Database(make_schema())
        with pytest.raises(SchemaError):
            db.insert("a", id=1, name="x", bogus=1)

    def test_fk_checked_on_insert(self):
        db = Database(make_schema())
        with pytest.raises(SchemaError):
            db.insert("b", id=1, a_id=42, note="dangling")
        db.insert("b", id=1, a_id=None, note="null fk ok")

    def test_row_accessors(self):
        db = Database(make_schema())
        tid = db.insert("a", id=5, name="hello world")
        row = db.row(tid)
        assert row["name"] == "hello world"
        assert row.key == 5
        assert row.as_dict() == {"id": 5, "name": "hello world"}
        assert row.text() == "hello world"

    def test_distinct(self):
        db = Database(make_schema())
        db.insert("a", id=1, name="x")
        db.insert("a", id=2, name="x")
        db.insert("a", id=3, name="y")
        assert db.table("a").distinct("name") == ["x", "y"]


class TestDatabaseNavigation:
    def test_references_and_referrers(self):
        db = Database(make_schema())
        a_tid = db.insert("a", id=1, name="alpha")
        b_tid = db.insert("b", id=10, a_id=1, note="child")
        b_row = db.row(b_tid)
        parents = db.references_of(b_row)
        assert len(parents) == 1
        assert parents[0][0].key == 1
        a_row = db.row(a_tid)
        children = db.referrers_of(a_row)
        assert len(children) == 1
        assert children[0][0].key == 10

    def test_neighbors_symmetric(self):
        db = Database(make_schema())
        a_tid = db.insert("a", id=1, name="alpha")
        b_tid = db.insert("b", id=10, a_id=1, note="child")
        assert db.neighbors(b_tid) == [a_tid]
        assert db.neighbors(a_tid) == [b_tid]

    def test_validate_reports_dangling(self):
        db = Database(make_schema())
        db.insert("a", id=1, name="alpha")
        db.insert("b", id=10, a_id=1, note="ok", check_fk=False)
        assert db.validate() == []

    def test_size(self, tiny_db):
        total = sum(len(t) for t in tiny_db.tables.values())
        assert tiny_db.size() == total


class TestExecutor:
    def _populated(self):
        db = Database(make_schema())
        db.insert("a", id=1, name="alpha")
        db.insert("a", id=2, name="beta")
        db.insert("b", id=10, a_id=1, note="one")
        db.insert("b", id=11, a_id=1, note="two")
        db.insert("b", id=12, a_id=2, note="three")
        db.insert("b", id=13, a_id=None, note="orphan")
        return db

    def test_null_keys_never_join(self):
        """A null FK probes nothing (SQL semantics): the orphan joins no
        ``a`` row, its sibling joins its parent."""
        db = self._populated()
        tuple_sets = TupleSets(db, InvertedIndex(db), ["orphan", "one"])
        edge = SchemaGraph(db.schema).edges_between("b", "a")[0]

        def b_to_a(word):
            nodes = [
                CNNode(TupleSetKey("b", frozenset([word]))),
                CNNode(TupleSetKey("a", frozenset())),
            ]
            return CandidateNetwork(nodes, [(0, 1, edge)])

        assert list(evaluate_cn(b_to_a("orphan"), tuple_sets)) == []
        assert [j.tuple_ids() for j in evaluate_cn(b_to_a("one"), tuple_sets)] == [
            (("b", 0), ("a", 0))
        ]

    def test_joined_row_equality_and_lookup(self):
        db = self._populated()
        row_a = next(iter(db.rows("a")))
        j1 = JoinedRow(("x",), (row_a,))
        j2 = JoinedRow(("x",), (row_a,))
        assert j1 == j2
        assert hash(j1) == hash(j2)
        assert j1["x"] is row_a
        with pytest.raises(KeyError):
            j1["nope"]


class TestSchemaGraph:
    def test_edges_and_neighbors(self, tiny_db):
        graph = SchemaGraph(tiny_db.schema)
        assert set(graph.tables) == {"author", "conference", "paper", "write", "cite"}
        neighbors = {t for t, _ in graph.neighbors("paper")}
        assert neighbors == {"conference", "write", "cite"}

    def test_join_columns_orientation(self, tiny_db):
        graph = SchemaGraph(tiny_db.schema)
        edge = graph.edges_between("write", "author")[0]
        assert edge.join_columns("write") == ("aid", "aid")
        assert edge.join_columns("author") == ("aid", "aid")

    def test_self_relationship_edges(self, tiny_db):
        graph = SchemaGraph(tiny_db.schema)
        cite_edges = graph.edges_between("cite", "paper")
        assert len(cite_edges) == 2  # citing and cited

    def test_shortest_join_path(self, tiny_db):
        graph = SchemaGraph(tiny_db.schema)
        path = graph.shortest_join_path("author", "conference")
        assert path[0] == "author"
        assert path[-1] == "conference"
        assert len(path) == 4  # author-write-paper-conference

    def test_connected(self, tiny_db):
        assert SchemaGraph(tiny_db.schema).is_connected()
