"""Kite-style cross-database keyword search (Sayyadian et al., ICDE 07).

Answers may span databases: a tuple in DB1 joins a tuple in DB2 through
an *inter-database link* — a discovered or declared correspondence
between columns (e.g. ``db1.author.name ~ db2.person.fullname``).  We
build one combined data graph whose nodes are (db name, tuple) and whose
edges are the intra-database FK edges plus value-matching link edges,
then run the ordinary graph search (BANKS backward expansion) on it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graph.data_graph import DataGraph, build_data_graph
from repro.graph_search.banks import BanksResult, banks_backward
from repro.index.inverted import InvertedIndex
from repro.index.text import tokenize
from repro.relational.database import Database, TupleId


@dataclass(frozen=True)
class InterDbLink:
    """Join correspondence across databases."""

    db_a: str
    table_a: str
    column_a: str
    db_b: str
    table_b: str
    column_b: str
    weight: float = 2.0  # cross-db joins cost more than local FKs


def _qualify(db_name: str, tid: TupleId) -> TupleId:
    """Namespace a tuple id with its database."""
    return TupleId(f"{db_name}/{tid.table}", tid.rowid)


class CrossDatabase:
    """A federation of named databases with inter-database links."""

    def __init__(
        self,
        databases: Dict[str, Database],
        links: Sequence[InterDbLink] = (),
    ):
        self.databases = dict(databases)
        self.links = list(links)
        self.indexes = {
            name: InvertedIndex(db) for name, db in self.databases.items()
        }
        # keyword -> one sorted qualified-id list per member database,
        # computed once; lookups lazily merge the sorted runs.
        self._qualified: Dict[str, List[List[TupleId]]] = {}
        self.graph = self._build_graph()

    def _build_graph(self) -> DataGraph:
        nodes: Dict[TupleId, float] = {}
        edges: List[Tuple[TupleId, TupleId, float]] = []
        for name, db in self.databases.items():
            local = build_data_graph(db)
            nodes.update((_qualify(name, node), 0.0) for node in local.ids)
            edges.extend(
                (_qualify(name, u), _qualify(name, v), w) for u, v, w in local.edges()
            )
        for link in self.links:
            db_a = self.databases[link.db_a]
            db_b = self.databases[link.db_b]
            # Value-match join: hash db_b's column, probe with db_a's.
            by_value: Dict[object, List[TupleId]] = {}
            for row in db_b.rows(link.table_b):
                value = row[link.column_b]
                if value is not None:
                    by_value.setdefault(self._normalise(value), []).append(
                        TupleId(link.table_b, row.rowid)
                    )
            for row in db_a.rows(link.table_a):
                value = row[link.column_a]
                if value is None:
                    continue
                for target in by_value.get(self._normalise(value), ()):
                    edges.append((
                        _qualify(link.db_a, TupleId(link.table_a, row.rowid)),
                        _qualify(link.db_b, target),
                        link.weight,
                    ))
        return DataGraph(nodes, edges)

    @staticmethod
    def _normalise(value: object) -> object:
        if isinstance(value, str):
            return " ".join(tokenize(value))
        return value

    def matching_tuples(self, keyword: str) -> List[TupleId]:
        """Qualified tuples containing *keyword* across all databases.

        Each per-database posting list is qualified and sorted once per
        keyword (postings come back in table insertion order, and the
        db-name prefix reorders tables anyway), then cached; repeat
        lookups only re-run the lazy k-way merge of the sorted runs
        instead of re-sorting the full federation-wide list.
        """
        runs = self._qualified.get(keyword)
        if runs is None:
            runs = [
                sorted(
                    _qualify(name, tid)
                    for tid in index.matching_tuples(keyword)
                )
                for name, index in sorted(self.indexes.items())
            ]
            self._qualified[keyword] = runs
        return list(heapq.merge(*runs))


def cross_search(
    federation: CrossDatabase,
    keywords: Sequence[str],
    k: int = 5,
) -> BanksResult:
    """Top-k cross-database answer trees (BANKS over the merged graph)."""
    groups = [federation.matching_tuples(kw) for kw in keywords]
    if any(not g for g in groups):
        return BanksResult([], 0)
    return banks_backward(federation.graph, groups, k=k)


def spans_databases(tree_nodes: Sequence[TupleId]) -> bool:
    """True when an answer mixes tuples from different databases."""
    prefixes = {node.table.split("/", 1)[0] for node in tree_nodes}
    return len(prefixes) > 1
