"""Hub index for proximity search (Goldman et al., VLDB 98; slide 122).

Indexing all-pairs distances needs O(|V|^2) space; instead a set of hub
nodes H is chosen, distances *between hubs* are stored exactly, and for
every non-hub node we store d*(u, h): the shortest distance from u to
each nearby hub **without crossing another hub**.  Then

    d(x, y) = min( d*(x, y),
                   min over hubs A, B of d*(x, A) + d_H(A, B) + d*(B, y) )

Hubs are selected greedily by degree (an approximation of "balanced
separators" that works well on FK graphs whose hubs are the high-fan-in
entities).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set, Tuple

from repro.graph.data_graph import DataGraph
from repro.index.distance import bounded_bfs_distances
from repro.relational.database import TupleId

INF = float("inf")


class HubIndex:
    """Distance oracle with hub-based compression."""

    def __init__(self, graph: DataGraph, hub_count: Optional[int] = None):
        self.graph = graph
        n = len(graph)
        if hub_count is None:
            hub_count = max(1, int(n ** 0.5)) if n else 0
        by_degree = sorted(graph.nodes, key=lambda v: (-graph.degree(v), v))
        self.hubs: Set[TupleId] = set(by_degree[:hub_count])
        # d*(u, h) for each node u and hub h, avoiding intermediate hubs.
        self._to_hubs: Dict[TupleId, Dict[TupleId, float]] = {}
        # d*(u, v) to non-hub nodes in the same hub-free region.
        self._local: Dict[TupleId, Dict[TupleId, float]] = {}
        # exact hub-to-hub distances over the full graph.
        self._hub_dist: Dict[TupleId, Dict[TupleId, float]] = {}
        self._build()

    def _build(self) -> None:
        hubs = {self.graph.index[hub] for hub in self.hubs}
        for node in range(len(self.graph)):
            to_hubs, local = self._hub_avoiding_dijkstra(node, hubs)
            self._to_hubs[self.graph.ids[node]] = to_hubs
            self._local[self.graph.ids[node]] = local
        for hub in self.hubs:
            self._hub_dist[hub] = bounded_bfs_distances(self.graph, [hub], INF)

    def _hub_avoiding_dijkstra(
        self, source: int, hubs: Set[int]
    ) -> Tuple[Dict[TupleId, float], Dict[TupleId, float]]:
        """Distances from *source* along paths whose interior avoids hubs."""
        nbrs, wts = self.graph.nbrs, self.graph.wts
        dist: Dict[int, float] = {source: 0.0}
        settled: Set[int] = set()
        heap: List[Tuple[float, int]] = [(0.0, source)]
        while heap:
            d, node = heapq.heappop(heap)
            if node in settled:
                continue
            settled.add(node)
            # Expansion stops at hubs: a hub may be reached but not crossed.
            if node in hubs and node != source:
                continue
            for nbr, weight in zip(nbrs[node], wts[node]):
                nd = d + weight
                if nd < dist.get(nbr, INF):
                    dist[nbr] = nd
                    heapq.heappush(heap, (nd, nbr))
        ids = self.graph.ids
        to_hubs = {ids[n]: d for n, d in dist.items() if n in hubs and n in settled}
        local = {ids[n]: d for n, d in dist.items() if n not in hubs and n in settled}
        return to_hubs, local

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def distance(self, x: TupleId, y: TupleId) -> float:
        """Exact shortest distance via the hub decomposition."""
        if x == y:
            return 0.0
        best = self._local.get(x, {}).get(y, INF)
        x_hubs = self._to_hubs.get(x, {})
        y_hubs = self._to_hubs.get(y, {})
        for hub_a, da in x_hubs.items():
            hub_rows = self._hub_dist.get(hub_a, {})
            for hub_b, db in y_hubs.items():
                between = hub_rows.get(hub_b, INF)
                total = da + between + db
                if total < best:
                    best = total
        return best

    def index_entries(self) -> int:
        """Stored entry count (the space the hub trick is saving)."""
        return (
            sum(len(v) for v in self._to_hubs.values())
            + sum(len(v) for v in self._local.values())
            + sum(len(v) for v in self._hub_dist.values())
        )

    def __repr__(self) -> str:
        return f"HubIndex({len(self.hubs)} hubs, {self.index_entries()} entries)"
