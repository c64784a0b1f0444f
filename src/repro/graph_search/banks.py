"""BANKS backward and frontier-prioritised expansion (slides 113-114).

* **BANKS I** (Bhalotia+ ICDE 02): one single-source-set Dijkstra per
  keyword group, expanded in *equi-distance* order across all groups; a
  node reached by every group becomes a candidate answer root whose tree
  is the union of the shortest paths to each group.

* **BANKS II** (Kacholia+ VLDB 05): instead of strict equi-distance, an
  activation-based priority prefers expanding (a) frontiers that
  originate from small keyword groups and (b) low-degree nodes — the
  "spreading activation" idea.  We model activation as
  ``distance * log(2 + origin group size) * log(2 + degree)``: hubs and
  huge-group frontiers are deprioritised, which is what lets BANKS II
  confirm the meeting points with fewer node expansions on hub-heavy
  graphs (the E4 claim).

Both return the same semantics: top-k distinct-root answers with cost
``sum_i dist(root, group_i)``, guaranteed optimal because expansion
stops only when the confirmed k-th cost is no worse than any bound on
unseen roots.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.graph.data_graph import DataGraph
from repro.graph_search.steiner import SteinerTree
from repro.relational.database import TupleId
from repro.resilience.budget import QueryBudget
from repro.resilience.errors import BudgetExceededError

INF = float("inf")


@dataclass
class BanksResult:
    """Top-k answers plus the expansion statistics benchmarks report."""

    trees: List[SteinerTree]
    nodes_expanded: int


def _result_tree(
    graph: DataGraph, root: int, parents: List[Dict[int, Optional[int]]]
) -> SteinerTree:
    """Union of shortest paths from *root* back to each group."""
    ids = graph.ids
    pairs: Set[Tuple[int, int]] = set()
    for parent in parents:
        node = root
        prev = parent.get(node)
        while prev is not None:
            pairs.add((node, prev) if node < prev else (prev, node))
            node, prev = prev, parent.get(prev)
    edges = [(ids[u], ids[v]) for u, v in sorted(pairs)]
    weight = sum(graph.edge_weight(u, v) or 0.0 for u, v in edges)
    return SteinerTree(root=ids[root], edges=edges, weight=weight)


def _expand(
    graph: DataGraph,
    groups: Sequence[Sequence[TupleId]],
    k: int,
    priority: Callable[[float, int, int], float],
    budget: Optional[QueryBudget] = None,
    span=None,
) -> BanksResult:
    """Expand all groups from one heap ordered by *priority*.

    Nodes are the graph's integer ids; *priority* maps
    ``(distance, group, node)`` to the heap key.
    """
    g = len(groups)
    if g == 0 or any(not group for group in groups):
        return BanksResult([], 0)
    index, nbrs, wts = graph.index, graph.nbrs, graph.wts
    dists: List[Dict[int, float]] = [dict() for _ in range(g)]
    parents: List[Dict[int, Optional[int]]] = [dict() for _ in range(g)]
    settled: List[Set[int]] = [set() for _ in range(g)]
    heap: List[Tuple[float, float, int, int]] = []
    for i, group in enumerate(groups):
        for match in group:
            node = index.get(match)
            if node is not None:
                dists[i][node] = 0.0
                parents[i][node] = None
                heapq.heappush(heap, (priority(0.0, i, node), 0.0, i, node))
    nodes_expanded = 0
    groups_reached: Dict[int, int] = {}
    confirmed: Dict[int, float] = {}
    # The k cheapest confirmed costs, negated: -cheapest[0] is the k-th.
    cheapest: List[float] = []
    # Per group, a (distance, node) heap mirroring the main heap from the
    # first termination test on; settled nodes are dropped lazily, so its
    # top is the group's frontier minimum without scanning the main heap.
    frontier: Optional[List[List[Tuple[float, int]]]] = None

    try:
        while heap:
            prio, dist, i, node = heapq.heappop(heap)
            if node in settled[i]:
                continue
            settled[i].add(node)
            nodes_expanded += 1
            if budget is not None:
                budget.tick_nodes()
            reached = groups_reached[node] = groups_reached.get(node, 0) + 1
            if reached == g:
                cost = confirmed[node] = sum(d[node] for d in dists)
                if len(cheapest) < k:
                    heapq.heappush(cheapest, -cost)
                elif cost < -cheapest[0]:
                    heapq.heapreplace(cheapest, -cost)
            # Termination: k confirmed roots whose cost beats the optimistic
            # bound for any unconfirmed root (sum of current frontier minima).
            if len(confirmed) >= k:
                if frontier is None:
                    frontier = [[] for _ in range(g)]
                    for _, d2, gi, n2 in heap:
                        frontier[gi].append((d2, n2))
                    for group_frontier in frontier:
                        heapq.heapify(group_frontier)
                bound = 0.0
                for group_frontier, done in zip(frontier, settled):
                    while group_frontier and group_frontier[0][1] in done:
                        heapq.heappop(group_frontier)
                    if group_frontier:
                        bound += group_frontier[0][0]
                if -cheapest[0] <= bound:
                    break
            dist_i, parent_i = dists[i], parents[i]
            for nbr, w in zip(nbrs[node], wts[node]):
                nd = dist + w
                if nd < dist_i.get(nbr, INF):
                    dist_i[nbr] = nd
                    parent_i[nbr] = node
                    heapq.heappush(heap, (priority(nd, i, nbr), nd, i, nbr))
                    if frontier is not None:
                        heapq.heappush(frontier[i], (nd, nbr))
    except BudgetExceededError:
        # Out of budget: fall through with whatever roots are confirmed
        # so far (the engine flags the result set as degraded).
        nodes_expanded = budget.nodes_expanded if budget is not None else 0

    roots = sorted(confirmed.items(), key=lambda item: (item[1], item[0]))[:k]
    trees = [_result_tree(graph, root, parents) for root, _ in roots]
    if span is not None:
        span.add("nodes_expanded", nodes_expanded)
        span.add("roots_confirmed", len(confirmed))
    return BanksResult(trees, nodes_expanded)


def banks_backward(
    graph: DataGraph,
    groups: Sequence[Sequence[TupleId]],
    k: int = 10,
    budget: Optional[QueryBudget] = None,
    span=None,
) -> BanksResult:
    """BANKS I: equi-distance backward expansion.

    *span* (a tracing span) receives ``nodes_expanded`` /
    ``roots_confirmed`` work counters; the expansion itself is
    untouched.
    """
    return _expand(
        graph, groups, k, priority=lambda d, i, n: d, budget=budget, span=span
    )


def banks_bidirectional(
    graph: DataGraph,
    groups: Sequence[Sequence[TupleId]],
    k: int = 10,
    budget: Optional[QueryBudget] = None,
    span=None,
) -> BanksResult:
    """BANKS II: activation-prioritised expansion (see module docstring)."""
    group_factor = [math.log(2 + max(1, len(group))) for group in groups]
    nbrs = graph.nbrs

    def priority(dist: float, i: int, node: int) -> float:
        return dist * (group_factor[i] * math.log(2 + len(nbrs[node])))

    return _expand(graph, groups, k, priority=priority, budget=budget, span=span)
