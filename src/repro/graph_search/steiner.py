"""Exact group Steiner trees by dynamic programming.

Slide 30: the top-1 result of keyword search under tree semantics is the
minimum-weight tree connecting one instance of each keyword — the group
Steiner tree (GST).  NP-hard in general, but tractable for a fixed
number of keyword groups ℓ (slide 112, Ding+ ICDE 07) via the
Dreyfus–Wagner style DP over group subsets:

    dp[S][v] = weight of the cheapest tree rooted at v covering groups S
    grow:   dp[S][v] -> dp[S][u] + w(u, v)          (Dijkstra relaxation)
    merge:  dp[S1][v] + dp[S2][v] -> dp[S1|S2][v]

Complexity O(3^ℓ·n + 2^ℓ·(n log n + m)): exponential in ℓ only.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.graph.data_graph import DataGraph
from repro.relational.database import TupleId
from repro.resilience.budget import QueryBudget
from repro.resilience.errors import BudgetExceededError

INF = float("inf")


@dataclass
class SteinerTree:
    """An answer tree: root, edges and total weight."""

    root: TupleId
    edges: List[Tuple[TupleId, TupleId]]
    weight: float

    @property
    def nodes(self) -> Set[TupleId]:
        out = {self.root}
        for u, v in self.edges:
            out.add(u)
            out.add(v)
        return out

    def size(self) -> int:
        return len(self.nodes)


def tree_weight(graph: DataGraph, edges: Sequence[Tuple[TupleId, TupleId]]) -> float:
    total = 0.0
    for u, v in edges:
        w = graph.edge_weight(u, v)
        if w is None:
            raise ValueError(f"({u}, {v}) is not an edge")
        total += w
    return total


def group_steiner_dp(
    graph: DataGraph,
    groups: Sequence[Sequence[TupleId]],
    max_groups: int = 10,
    budget: Optional[QueryBudget] = None,
    span=None,
) -> Optional[SteinerTree]:
    """Minimum-weight group Steiner tree, or None if no tree connects all.

    *groups* are the keyword match sets; a tree must touch at least one
    node from each group.  Raises for more than *max_groups* groups (the
    DP is exponential in the group count).  An exhausted *budget* stops
    the DP early and returns the best tree covering all groups found so
    far (None if no mask reached full coverage yet); the budget's
    ``exhausted`` flag tells the caller the answer may be suboptimal.

    *span* (a tracing span, see :mod:`repro.obs.trace`) receives the
    DP's work counters — ``nodes_settled`` and ``masks`` — without
    altering the computation in any way.
    """
    g = len(groups)
    if g == 0:
        return None
    if g > max_groups:
        raise ValueError(f"too many groups for exact DP ({g} > {max_groups})")
    if any(not group for group in groups):
        return None

    cg = graph.compact()
    index, ids, nbrs, wts = cg.index, cg.ids, cg.nbrs, cg.wts
    full = (1 << g) - 1
    # dp[mask][node] = best weight, nodes as compact ints.
    dp: List[Dict[int, float]] = [{} for _ in range(full + 1)]
    # back[mask][node] = parent node (grow) or (m1, m2) (merge); leaves absent.
    back: List[Dict[int, object]] = [{} for _ in range(full + 1)]

    for i, group in enumerate(groups):
        for match in group:
            node = index.get(match)
            if node is not None:
                dp[1 << i][node] = 0.0

    nodes_settled = 0
    masks_done = 0
    try:
        for mask in range(1, full + 1):
            best, origin = dp[mask], back[mask]
            # Merge: combine proper submasks at the same root.
            sub = (mask - 1) & mask
            while sub:
                other = mask ^ sub
                if sub < other:  # each unordered pair once
                    dp_other = dp[other]
                    for node, w1 in dp[sub].items():
                        w2 = dp_other.get(node)
                        if w2 is not None and w1 + w2 < best.get(node, INF):
                            best[node] = w1 + w2
                            origin[node] = (sub, other)
                sub = (sub - 1) & mask
            # Grow: Dijkstra over dp[mask].
            heap = [(w, n) for n, w in best.items()]
            heapq.heapify(heap)
            settled: Set[int] = set()
            while heap:
                w, node = heapq.heappop(heap)
                if node in settled or w > best[node]:
                    continue
                settled.add(node)
                if budget is not None:
                    budget.tick_nodes()
                for nbr, edge_w in zip(nbrs[node], wts[node]):
                    nw = w + edge_w
                    if nw < best.get(nbr, INF):
                        best[nbr] = nw
                        origin[nbr] = node
                        heapq.heappush(heap, (nw, nbr))
            nodes_settled += len(settled)
            masks_done += 1
    except BudgetExceededError:
        # Out of budget mid-DP: fall through and reconstruct from
        # whatever full-coverage entries exist (possibly none).
        pass

    if span is not None:
        span.add("nodes_settled", nodes_settled)
        span.add("masks", masks_done)
    if not dp[full]:
        return None
    weight, root = min((w, n) for n, w in dp[full].items())
    edges: List[Tuple[int, int]] = []
    _reconstruct(full, root, back, edges)
    return SteinerTree(
        root=ids[root], edges=[(ids[u], ids[v]) for u, v in edges], weight=weight
    )


def _reconstruct(
    mask: int,
    node: int,
    back: List[Dict[int, object]],
    edges: List[Tuple[int, int]],
) -> None:
    entry = back[mask].get(node)
    if entry is None:  # a keyword match: leaf of the tree
        return
    if isinstance(entry, int):
        edges.append((entry, node))
        _reconstruct(mask, entry, back, edges)
    else:
        sub, other = entry
        _reconstruct(sub, node, back, edges)
        _reconstruct(other, node, back, edges)
