"""STAR-style Steiner tree approximation (Kasneci et al., ICDE 09).

Slide 113: STAR builds a quick initial tree and then iteratively
improves it by replacing "loose paths" — tree paths between two
*fixpoints* (terminals or branching nodes) — with cheaper graph paths,
achieving an O(log n) approximation that empirically beats other
heuristics.  We implement the same two phases:

1. initial tree: union of shortest paths from the best distinct-root
   candidate to one closest match of each group;
2. improvement loop: repeatedly take the heaviest loose path and ask the
   graph for a cheaper replacement that keeps the tree connected and
   spanning; stop at a fixpoint.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.graph.data_graph import DataGraph
from repro.graph_search.steiner import SteinerTree
from repro.relational.database import TupleId

INF = float("inf")


Edges = Set[Tuple[int, int]]


def _multi_source_dijkstra(
    graph: DataGraph, sources: Sequence[int]
) -> Tuple[Dict[int, float], Dict[int, Optional[int]]]:
    nbrs, wts = graph.nbrs, graph.wts
    dist: Dict[int, float] = {}
    parent: Dict[int, Optional[int]] = {}
    heap: List[Tuple[float, int]] = []
    for s in sources:
        dist[s] = 0.0
        parent[s] = None
        heapq.heappush(heap, (0.0, s))
    settled: Set[int] = set()
    while heap:
        d, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        for nbr, w in zip(nbrs[node], wts[node]):
            nd = d + w
            if nd < dist.get(nbr, INF):
                dist[nbr] = nd
                parent[nbr] = node
                heapq.heappush(heap, (nd, nbr))
    return dist, parent


def _initial_tree(
    graph: DataGraph, groups: Sequence[Sequence[int]]
) -> Optional[Tuple[int, Edges, List[int]]]:
    """Best distinct-root tree: root minimising summed group distance,
    ties to the lowest id."""
    per_group = [_multi_source_dijkstra(graph, group) for group in groups]
    best_root = None
    best_cost = INF
    for node in range(len(graph)):
        cost = 0.0
        for dist, _ in per_group:
            d = dist.get(node)
            if d is None:
                cost = INF
                break
            cost += d
        if cost < best_cost:
            best_cost = cost
            best_root = node
    if best_root is None:
        return None
    edges: Edges = set()
    terminals: List[int] = [best_root]
    for dist, parent in per_group:
        node = best_root
        while parent.get(node) is not None:
            prev = parent[node]
            edges.add((min(node, prev), max(node, prev)))
            node = prev
        terminals.append(node)  # the group member the path ends at
    return best_root, edges, terminals


def _loose_paths(edges: Edges, terminals: Set[int]) -> List[List[int]]:
    """Maximal tree paths whose interior nodes have degree 2 and are
    not terminals (the replaceable segments)."""
    adj: Dict[int, List[int]] = {}
    for u, v in sorted(edges):
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    fixpoints = {
        n for n, nbrs in adj.items() if len(nbrs) != 2 or n in terminals
    }
    paths: List[List[int]] = []
    visited_edges: Edges = set()
    for start in sorted(fixpoints):
        for nbr in adj[start]:
            edge = (min(start, nbr), max(start, nbr))
            if edge in visited_edges:
                continue
            path = [start, nbr]
            visited_edges.add(edge)
            while path[-1] not in fixpoints:
                current = path[-1]
                nxt = next(n for n in adj[current] if n != path[-2])
                visited_edges.add((min(current, nxt), max(current, nxt)))
                path.append(nxt)
            paths.append(path)
    return paths


def _weight(graph: DataGraph, u: int, v: int) -> float:
    return graph.wts[u][graph.nbrs[u].index(v)]


def _path_weight(graph: DataGraph, path: List[int]) -> float:
    return sum(_weight(graph, path[i], path[i + 1]) for i in range(len(path) - 1))


def star_approximation(
    graph: DataGraph,
    groups: Sequence[Sequence[TupleId]],
    max_iterations: int = 50,
) -> Optional[SteinerTree]:
    """STAR: initial distinct-root tree + loose-path improvement."""
    if not groups or any(not g for g in groups):
        return None
    index, ids = graph.index, graph.ids
    groups = [list(dict.fromkeys(index[m] for m in g if m in index)) for g in groups]
    init = _initial_tree(graph, groups)
    if init is None:
        return None
    root, edges, terminal_list = init
    terminals = set(terminal_list)
    for _ in range(max_iterations):
        paths = _loose_paths(edges, terminals)
        if not paths:
            break
        paths.sort(key=lambda p: -_path_weight(graph, p))
        improved = False
        for path in paths:
            a, b = path[0], path[-1]
            current_weight = _path_weight(graph, path)
            # Cheapest a-b path through the graph avoiding the rest of
            # the tree's interior (so the result stays a tree).
            interior = set(path[1:-1])
            tree_nodes = set()
            for u, v in edges:
                tree_nodes.add(u)
                tree_nodes.add(v)
            forbidden = (tree_nodes - interior) - {a, b}
            replacement = _restricted_shortest_path(graph, a, b, forbidden)
            if replacement is None:
                continue
            new_weight = _path_weight(graph, replacement)
            if new_weight + 1e-12 < current_weight:
                for i in range(len(path) - 1):
                    edges.discard(
                        (min(path[i], path[i + 1]), max(path[i], path[i + 1]))
                    )
                for i in range(len(replacement) - 1):
                    u, v = replacement[i], replacement[i + 1]
                    edges.add((min(u, v), max(u, v)))
                improved = True
                break
        if not improved:
            break
    pairs = sorted(edges)
    return SteinerTree(
        root=ids[root],
        edges=[(ids[u], ids[v]) for u, v in pairs],
        weight=sum(_weight(graph, u, v) for u, v in pairs),
    )


def _restricted_shortest_path(
    graph: DataGraph,
    source: int,
    target: int,
    forbidden: Set[int],
) -> Optional[List[int]]:
    nbrs, wts = graph.nbrs, graph.wts
    dist: Dict[int, float] = {source: 0.0}
    parent: Dict[int, int] = {}
    heap: List[Tuple[float, int]] = [(0.0, source)]
    settled: Set[int] = set()
    while heap:
        d, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if node == target:
            path = [target]
            while path[-1] != source:
                path.append(parent[path[-1]])
            path.reverse()
            return path
        for nbr, w in zip(nbrs[node], wts[node]):
            if nbr in forbidden and nbr != target:
                continue
            nd = d + w
            if nd < dist.get(nbr, INF):
                dist[nbr] = nd
                parent[nbr] = node
                heapq.heappush(heap, (nd, nbr))
    return None
