"""The schema graph (tutorial slides 27-28, 115).

Nodes are tables; every foreign key contributes a directed edge from the
referencing (child) table to the referenced (parent) table.  Candidate
network generation expands over this graph in both directions, so the
graph exposes undirected adjacency with the originating foreign key
attached — joins need to know which column pair to equate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from repro.relational.schema import ForeignKey, Schema


@dataclass(frozen=True)
class SchemaEdge:
    """One traversable join edge.

    ``child`` holds the FK column; ``parent`` is referenced on its primary
    key.  ``forward`` is True when traversal goes child → parent.
    """

    child: str
    parent: str
    fk: ForeignKey

    def endpoints(self) -> Tuple[str, str]:
        return (self.child, self.parent)

    def other(self, table: str) -> str:
        if table == self.child:
            return self.parent
        if table == self.parent:
            return self.child
        raise ValueError(f"{table!r} is not an endpoint of {self!r}")

    def join_columns(self, from_table: str) -> Tuple[str, str]:
        """Columns to equate when traversing from *from_table*.

        Returns ``(column on from_table side, column on the other side)``.
        """
        if from_table == self.child:
            return (self.fk.column, self.fk.ref_column)
        if from_table == self.parent:
            return (self.fk.ref_column, self.fk.column)
        raise ValueError(f"{from_table!r} is not an endpoint of {self!r}")


class SchemaGraph:
    """Undirected multigraph over tables with FK-labelled edges."""

    def __init__(self, schema: Schema):
        self.schema = schema
        self._adjacency: Dict[str, List[SchemaEdge]] = {t.name: [] for t in schema}
        self._edges: List[SchemaEdge] = []
        for child, parent, fk in schema.join_edges():
            edge = SchemaEdge(child, parent, fk)
            self._edges.append(edge)
            self._adjacency[child].append(edge)
            if parent != child:
                self._adjacency[parent].append(edge)

    @property
    def tables(self) -> List[str]:
        return list(self._adjacency)

    @property
    def edges(self) -> List[SchemaEdge]:
        return list(self._edges)

    def neighbors(self, table: str) -> Iterator[Tuple[str, SchemaEdge]]:
        """(adjacent table, edge) pairs reachable from *table*."""
        for edge in self._adjacency[table]:
            yield edge.other(table), edge

    def degree(self, table: str) -> int:
        return len(self._adjacency[table])

    def edges_between(self, a: str, b: str) -> List[SchemaEdge]:
        return [e for e in self._adjacency[a] if e.other(a) == b]

    # networkx is imported where it is used: no serving path reaches
    # these three, so start-up and recovery do not pay for the import.
    def is_connected(self) -> bool:
        import networkx as nx

        return nx.is_connected(self.to_networkx()) if self.tables else True

    def shortest_join_path(self, source: str, target: str) -> List[str]:
        """Shortest table path between two tables (tables, not edges)."""
        import networkx as nx

        return nx.shortest_path(self.to_networkx(), source, target)

    def to_networkx(self) -> "nx.MultiGraph":
        import networkx as nx

        graph = nx.MultiGraph()
        graph.add_nodes_from(self.tables)
        for edge in self._edges:
            graph.add_edge(edge.child, edge.parent, fk=edge.fk)
        return graph

    def __repr__(self) -> str:
        return f"SchemaGraph({len(self.tables)} tables, {len(self._edges)} edges)"
