"""Tuple-level data graph built from a relational database.

Nodes are :class:`~repro.relational.database.TupleId`; each foreign key
instance produces one undirected, weighted edge.  The graph is stored as
plain adjacency dictionaries (fast membership tests and Dijkstra without
networkx overhead) but can be exported to networkx for algorithms that
want it.  The search algorithms walk :meth:`DataGraph.compact`, an
integer-id view of the same adjacency, so their inner loops hash and
compare machine ints instead of ``TupleId`` objects.
"""

from __future__ import annotations

import heapq
import threading
from operator import attrgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.relational.database import Database, TupleId


class CompactGraph:
    """Integer-id view of a :class:`DataGraph`: node ``i`` is ``ids[i]``.

    ``ids`` is in sorted ``TupleId`` order, so ``i < j`` iff
    ``ids[i] < ids[j]``: a heap or ``min`` keyed on ``(cost, i)`` breaks
    ties exactly as one keyed on ``(cost, ids[i])``.  ``nbrs[i]`` /
    ``wts[i]`` are parallel lists in the adjacency's insertion order.
    """

    __slots__ = ("ids", "index", "nbrs", "wts")

    def __init__(self, adj: Dict[TupleId, Dict[TupleId, float]]) -> None:
        self.ids: List[TupleId] = sorted(adj, key=attrgetter("table", "rowid"))
        self.index: Dict[TupleId, int] = {t: i for i, t in enumerate(self.ids)}
        index = self.index
        self.nbrs: List[List[int]] = [[index[v] for v in adj[u]] for u in self.ids]
        self.wts: List[List[float]] = [list(adj[u].values()) for u in self.ids]


class DataGraph:
    """Undirected weighted graph over database tuples."""

    def __init__(self) -> None:
        self._adj: Dict[TupleId, Dict[TupleId, float]] = {}
        self._node_weight: Dict[TupleId, float] = {}
        self._compact: Optional[CompactGraph] = None
        self._compact_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node: TupleId, weight: float = 0.0) -> None:
        self._compact = None
        self._adj.setdefault(node, {})
        self._node_weight[node] = weight

    def add_edge(self, u: TupleId, v: TupleId, weight: float = 1.0) -> None:
        if u == v:
            return
        self._compact = None
        self._adj.setdefault(u, {})
        self._adj.setdefault(v, {})
        self._node_weight.setdefault(u, 0.0)
        self._node_weight.setdefault(v, 0.0)
        existing = self._adj[u].get(v)
        if existing is None or weight < existing:
            self._adj[u][v] = weight
            self._adj[v][u] = weight

    # ------------------------------------------------------------------
    # Basics
    # ------------------------------------------------------------------
    def __contains__(self, node: TupleId) -> bool:
        return node in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    @property
    def nodes(self) -> List[TupleId]:
        return list(self._adj)

    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def neighbors(self, node: TupleId) -> Iterator[Tuple[TupleId, float]]:
        return iter(self._adj.get(node, {}).items())

    def degree(self, node: TupleId) -> int:
        return len(self._adj.get(node, {}))

    def edge_weight(self, u: TupleId, v: TupleId) -> Optional[float]:
        return self._adj.get(u, {}).get(v)

    def node_weight(self, node: TupleId) -> float:
        return self._node_weight.get(node, 0.0)

    def compact(self) -> CompactGraph:
        """The memoised integer view; rebuilt after ``add_node``/``add_edge``.

        Built under a lock so concurrent first callers share one view.
        Mutating the graph while another thread searches it was never
        supported (the engine swaps in a fresh graph instead).
        """
        view = self._compact
        if view is None:
            with self._compact_lock:
                view = self._compact
                if view is None:
                    view = self._compact = CompactGraph(self._adj)
        return view

    # ------------------------------------------------------------------
    # Shortest paths
    # ------------------------------------------------------------------
    def dijkstra(
        self,
        source: TupleId,
        max_distance: Optional[float] = None,
        targets: Optional[Set[TupleId]] = None,
    ) -> Dict[TupleId, float]:
        """Single-source shortest distances, optionally bounded.

        Stops early once every node in *targets* has been settled.
        Targets that are not in the graph at all are discarded up front,
        and targets beyond ``max_distance`` simply never enter the heap,
        so the scan ends as soon as the frontier drains — it never keeps
        exploring on behalf of unreachable targets.
        """
        dist: Dict[TupleId, float] = {source: 0.0}
        settled: Set[TupleId] = set()
        pending: Optional[Set[TupleId]] = None
        if targets is not None:
            pending = {t for t in targets if t in self._adj}
            if not pending:
                return {source: 0.0} if source in self._adj else {}
        heap: List[Tuple[float, TupleId]] = [(0.0, source)]
        while heap:
            d, node = heapq.heappop(heap)
            if node in settled:
                continue
            settled.add(node)
            if pending is not None:
                pending.discard(node)
                if not pending:
                    break
            for nbr, weight in self.neighbors(node):
                nd = d + weight
                if max_distance is not None and nd > max_distance:
                    continue
                if nd < dist.get(nbr, float("inf")):
                    dist[nbr] = nd
                    heapq.heappush(heap, (nd, nbr))
        return {n: d for n, d in dist.items() if n in settled}

    def shortest_path(
        self, source: TupleId, target: TupleId
    ) -> Optional[List[TupleId]]:
        """One shortest path source -> target, or None if disconnected."""
        if source == target:
            return [source]
        dist: Dict[TupleId, float] = {source: 0.0}
        prev: Dict[TupleId, TupleId] = {}
        settled: Set[TupleId] = set()
        heap: List[Tuple[float, TupleId]] = [(0.0, source)]
        while heap:
            d, node = heapq.heappop(heap)
            if node in settled:
                continue
            settled.add(node)
            if node == target:
                path = [target]
                while path[-1] != source:
                    path.append(prev[path[-1]])
                path.reverse()
                return path
            for nbr, weight in self.neighbors(node):
                nd = d + weight
                if nd < dist.get(nbr, float("inf")):
                    dist[nbr] = nd
                    prev[nbr] = node
                    heapq.heappush(heap, (nd, nbr))
        return None

    def bfs_hops(
        self, source: TupleId, max_hops: Optional[int] = None
    ) -> Dict[TupleId, int]:
        """Unweighted hop distances from *source*."""
        dist = {source: 0}
        frontier = [source]
        hops = 0
        while frontier:
            if max_hops is not None and hops >= max_hops:
                break
            hops += 1
            nxt = []
            for node in frontier:
                for nbr, _ in self.neighbors(node):
                    if nbr not in dist:
                        dist[nbr] = hops
                        nxt.append(nbr)
            frontier = nxt
        return dist

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_networkx(self) -> "nx.Graph":
        import networkx as nx  # test-oracle export only: not a start-up cost

        graph = nx.Graph()
        for node, weight in self._node_weight.items():
            graph.add_node(node, weight=weight)
        for u, nbrs in self._adj.items():
            for v, w in nbrs.items():
                if u < v:
                    graph.add_edge(u, v, weight=w)
        return graph

    def subgraph(self, nodes: Iterable[TupleId]) -> "DataGraph":
        keep = set(nodes)
        sub = DataGraph()
        for node in keep:
            if node in self._adj:
                sub.add_node(node, self._node_weight.get(node, 0.0))
        for u in keep:
            for v, w in self._adj.get(u, {}).items():
                if v in keep:
                    sub.add_edge(u, v, w)
        return sub

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
    graph = DataGraph()
    for tid in db.all_tuple_ids():
        w = node_weight(db, tid) if node_weight else 0.0
        graph.add_node(tid, w)
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
                w = edge_weight(db, u, v) if edge_weight else 1.0
                graph.add_edge(u, v, w)
    return graph
