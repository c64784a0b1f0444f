"""Tuple-level data graph built from a relational database.

Nodes are :class:`~repro.relational.database.TupleId`; each foreign key
instance produces one undirected, weighted edge.  :class:`DataGraph`
stores the graph once, as an integer-id adjacency: node ``i`` is
``ids[i]`` and its neighbours are the ints ``nbrs[i]``.  The search
loops hash and compare machine ints instead of ``TupleId`` objects, and
map ids back to tuples only at their boundaries.  The graph is built in
one constructor call and never mutated: the engine drops it after a
write and rebuilds it on the next graph query.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.relational.database import Database, TupleId

Edge = Tuple[TupleId, TupleId, float]


class DataGraph:
    """Undirected weighted graph over database tuples, as integer ids.

    ``ids`` is in sorted ``TupleId`` order, so ``i < j`` iff
    ``ids[i] < ids[j]``: a heap or ``min`` keyed on ``(cost, i)`` breaks
    ties exactly as one keyed on ``(cost, ids[i])``.  ``index`` maps a
    ``TupleId`` back to its id.  ``nbrs[i]`` / ``wts[i]`` are parallel
    tuples of node ``i``'s neighbours (in the order their first edge
    arrived) and edge weights; ``weights[i]`` is the node's weight.

    The nodes are the keys of *node_weights* plus every edge endpoint
    (weight 0.0).  Self-loops are dropped, and of parallel edges the
    lightest is kept.
    """

    __slots__ = ("ids", "index", "nbrs", "wts", "weights")

    def __init__(
        self, node_weights: Mapping[TupleId, float], edges: Iterable[Edge] = ()
    ) -> None:
        edges = [edge for edge in edges if edge[0] != edge[1]]
        nodes = set(node_weights)
        for u, v, _ in edges:
            nodes.add(u)
            nodes.add(v)
        self.ids: List[TupleId] = sorted(nodes, key=attrgetter("table", "rowid"))
        self.index: Dict[TupleId, int] = {t: i for i, t in enumerate(self.ids)}
        index = self.index
        adj: List[Dict[int, float]] = [{} for _ in self.ids]
        for u, v, w in edges:
            i, j = index[u], index[v]
            existing = adj[i].get(j)
            if existing is None or w < existing:
                adj[i][j] = w
                adj[j][i] = w
        self.nbrs: List[Tuple[int, ...]] = [tuple(row) for row in adj]
        self.wts: List[Tuple[float, ...]] = [tuple(row.values()) for row in adj]
        self.weights: List[float] = [node_weights.get(t, 0.0) for t in self.ids]

    def __contains__(self, node: TupleId) -> bool:
        return node in self.index

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def nodes(self) -> List[TupleId]:
        """All nodes in id (sorted ``TupleId``) order."""
        return list(self.ids)

    def edge_count(self) -> int:
        return sum(map(len, self.nbrs)) // 2

    def degree(self, node: TupleId) -> int:
        i = self.index.get(node)
        return 0 if i is None else len(self.nbrs[i])

    def edge_weight(self, u: TupleId, v: TupleId) -> Optional[float]:
        i, j = self.index.get(u), self.index.get(v)
        if i is None or j is None:
            return None
        try:
            return self.wts[i][self.nbrs[i].index(j)]
        except ValueError:
            return None

    def node_weight(self, node: TupleId) -> float:
        i = self.index.get(node)
        return 0.0 if i is None else self.weights[i]

    def edges(self) -> Iterator[Edge]:
        """Every edge once, as ``(u, v, weight)`` with ``u < v``."""
        ids = self.ids
        for i, (row, ws) in enumerate(zip(self.nbrs, self.wts)):
            for j, w in zip(row, ws):
                if i < j:
                    yield ids[i], ids[j], w

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_networkx(self) -> "nx.Graph":
        import networkx as nx  # test-oracle export only: not a start-up cost

        graph = nx.Graph()
        for node, weight in zip(self.ids, self.weights):
            graph.add_node(node, weight=weight)
        for u, v, w in self.edges():
            graph.add_edge(u, v, weight=w)
        return graph

    def subgraph(self, nodes: Iterable[TupleId]) -> "DataGraph":
        keep = {node for node in nodes if node in self.index}
        return DataGraph(
            {node: self.node_weight(node) for node in keep},
            ((u, v, w) for u, v, w in self.edges() if u in keep and v in keep),
        )

    def __repr__(self) -> str:
        return f"DataGraph({len(self)} nodes, {self.edge_count()} edges)"


def build_data_graph(
    db: Database,
    edge_weight: Optional[Callable[[Database, TupleId, TupleId], float]] = None,
    node_weight: Optional[Callable[[Database, TupleId], float]] = None,
) -> DataGraph:
    """Build the tuple graph of *db*.

    Every row becomes a node; every non-null FK instance becomes an edge
    between the referencing and referenced tuples.  Weight callbacks
    default to uniform edges and zero node weights; BANKS-style weights
    live in :mod:`repro.graph.weights`.
    """
    node_weights = {
        tid: node_weight(db, tid) if node_weight else 0.0
        for tid in db.all_tuple_ids()
    }

    def fk_edges() -> Iterator[Edge]:
        for table in db.tables.values():
            for fk in table.schema.foreign_keys:
                parent_table = db.table(fk.ref_table)
                for row in table.rows():
                    value = row[fk.column]
                    if value is None:
                        continue
                    parent = parent_table.by_key(value)
                    if parent is None:
                        continue
                    u = TupleId(table.name, row.rowid)
                    v = TupleId(parent_table.name, parent.rowid)
                    yield u, v, edge_weight(db, u, v) if edge_weight else 1.0

    return DataGraph(node_weights, fk_edges())
