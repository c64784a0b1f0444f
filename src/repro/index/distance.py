"""Node-to-keyword distance index (BLINKS / SLINKS, He et al. SIGMOD 07).

Slide 123: SLINKS "indexes node-to-keyword distances, thus O(K·|V|)
space", after which top-k search can run Fagin's threshold algorithm
over per-keyword sorted lists.  We precompute, for every keyword, the
shortest distance from each node to the nearest tuple matching the
keyword (bounded by ``max_distance`` to cap index size, as the papers
all do).
"""

from __future__ import annotations

import heapq
import threading
from typing import Dict, Iterable, List, Optional, Tuple

from repro.graph.data_graph import DataGraph
from repro.index.inverted import InvertedIndex
from repro.relational.database import TupleId
from repro.resilience.budget import QueryBudget
from repro.resilience.errors import BudgetExceededError

_UNREACHED = (float("inf"), 0)


def nearest_source_labels(
    graph: DataGraph,
    seeds: Iterable[Tuple[int, int]],
    max_distance: float,
    budget: Optional[QueryBudget] = None,
) -> Dict[int, Tuple[float, int]]:
    """Multi-source bounded Dijkstra over the graph's integer ids.

    *seeds* are ``(node, rank)`` pairs.  Every node within
    *max_distance* of a seed maps to the lexicographically smallest
    ``(distance, rank)`` over the seeds: its distance to the nearest
    seed and, among equally near seeds, the lowest rank.  One
    ``budget.tick_nodes()`` per settled node; an exhausted budget ends
    the search and returns the nodes settled so far, whose labels are
    final.
    """
    nbrs, wts = graph.nbrs, graph.wts
    best: Dict[int, Tuple[float, int]] = {}
    heap: List[Tuple[float, int, int]] = []
    for node, rank in seeds:
        if (0.0, rank) < best.get(node, _UNREACHED):
            best[node] = (0.0, rank)
            heap.append((0.0, rank, node))
    heapq.heapify(heap)
    settled: Dict[int, Tuple[float, int]] = {}
    try:
        while heap:
            d, rank, node = heapq.heappop(heap)
            if node in settled:
                continue
            if budget is not None:
                budget.tick_nodes()
            settled[node] = (d, rank)
            for nbr, weight in zip(nbrs[node], wts[node]):
                nd = d + weight
                if nd > max_distance:
                    continue
                label = (nd, rank)
                if label < best.get(nbr, _UNREACHED):
                    best[nbr] = label
                    heapq.heappush(heap, (nd, rank, nbr))
    except BudgetExceededError:
        pass  # partial search; caller sees budget.exhausted
    return settled


def within_hops(graph: DataGraph, sources: Iterable[int], r: int) -> Dict[int, int]:
    """Nodes at most *r* hops from any of the ids *sources*, mapped to
    their hop count (level-by-level BFS)."""
    nbrs = graph.nbrs
    seen = dict.fromkeys(sources, 0)
    frontier = list(seen)
    for hops in range(1, r + 1):
        nxt = []
        for node in frontier:
            for nbr in nbrs[node]:
                if nbr not in seen:
                    seen[nbr] = hops
                    nxt.append(nbr)
        if not nxt:
            break
        frontier = nxt
    return seen


def bounded_bfs_distances(
    graph: DataGraph, sources: Iterable[TupleId], max_distance: float
) -> Dict[TupleId, float]:
    """Multi-source Dijkstra: distance from each node to its nearest source."""
    index, ids = graph.index, graph.ids
    seeds = [(index[s], 0) for s in sources if s in index]
    return {
        ids[node]: d
        for node, (d, _) in nearest_source_labels(graph, seeds, max_distance).items()
    }


#: How far (in summed edge weight) a node may lie from a keyword match
#: and still be indexed; also the ``distinct_root`` search radius.
MAX_DISTANCE = 6.0


class KeywordDistanceIndex:
    """keyword -> {node: distance to nearest matching tuple}.

    Built lazily per keyword (real deployments index the full vocabulary
    offline; for experiments lazy construction keeps setup proportional
    to the queried vocabulary while behaving identically online).
    """

    def __init__(
        self,
        graph: DataGraph,
        index: InvertedIndex,
        max_distance: float = MAX_DISTANCE,
    ):
        self.graph = graph
        self.index = index
        self.max_distance = max_distance
        self._by_keyword: Dict[str, Dict[TupleId, float]] = {}
        self._sorted: Dict[str, List[Tuple[float, TupleId]]] = {}
        # Lazy per-keyword builds may race under concurrent batch
        # search; double-checked locking makes the first build shared.
        self._lock = threading.Lock()

    def distances(self, keyword: str) -> Dict[TupleId, float]:
        """All nodes within ``max_distance`` of a tuple matching *keyword*."""
        keyword = keyword.lower()
        cached = self._by_keyword.get(keyword)
        if cached is None:
            with self._lock:
                cached = self._by_keyword.get(keyword)
                if cached is None:
                    sources = self.index.matching_tuples_view(keyword)
                    cached = bounded_bfs_distances(
                        self.graph, sources, self.max_distance
                    )
                    self._by_keyword[keyword] = cached
        return cached

    def distance(self, node: TupleId, keyword: str) -> Optional[float]:
        return self.distances(keyword).get(node)

    def sorted_list(self, keyword: str) -> List[Tuple[float, TupleId]]:
        """(distance, node) pairs ascending — the lists TA iterates over.

        Memoised: TA restarts over the same lists, so the sort is paid
        once per keyword.  Returns a copy; callers may consume it.
        """
        keyword = keyword.lower()
        cached = self._sorted.get(keyword)
        if cached is None:
            distances = self.distances(keyword)
            with self._lock:
                cached = self._sorted.get(keyword)
                if cached is None:
                    pairs = [(d, n) for n, d in distances.items()]
                    pairs.sort()
                    self._sorted[keyword] = pairs
                    cached = pairs
        return list(cached)

    def candidate_roots(self, keywords: Iterable[str]) -> Dict[TupleId, float]:
        """Nodes reaching *every* keyword, scored by summed distance.

        This realises the distinct-root semantics (slide 31):
        ``cost(T_r) = sum_i cost(r, match_i)``.
        """
        keywords = [k.lower() for k in keywords]
        if not keywords:
            return {}
        maps = [self.distances(k) for k in keywords]
        smallest = min(maps, key=len)
        out: Dict[TupleId, float] = {}
        for node in smallest:
            total = 0.0
            for m in maps:
                d = m.get(node)
                if d is None:
                    break
                total += d
            else:
                out[node] = total
        return out

    def index_size(self) -> int:
        """Total number of (keyword, node) entries materialised so far."""
        return sum(len(m) for m in self._by_keyword.values())

    def __repr__(self) -> str:
        return (
            f"KeywordDistanceIndex(max_distance={self.max_distance}, "
            f"{len(self._by_keyword)} keywords cached)"
        )
