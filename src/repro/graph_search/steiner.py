"""Exact group Steiner trees by dynamic programming.

Slide 30: the top-1 result of keyword search under tree semantics is the
minimum-weight tree connecting one instance of each keyword — the group
Steiner tree (GST).  NP-hard in general, but tractable for a fixed
number of keyword groups ℓ (slide 112, Ding+ ICDE 07) via the
Dreyfus–Wagner style DP over group subsets:

    dp[S][v] = weight of the cheapest tree rooted at v covering groups S
    grow:   dp[S][v] -> dp[S][u] + w(u, v)          (Dijkstra relaxation)
    merge:  dp[S1][v] + dp[S2][v] -> dp[S1|S2][v]

Worst case O(3^ℓ·n + 2^ℓ·(n log n + m)): exponential in ℓ only.

**Bounded by the cheapest star.**  The ℓ singleton-mask Dijkstras run
in lockstep on one heap.  A node all ℓ of them have settled roots a
*star* — a shortest path to each group — whose weight, the sum of its ℓ
distances, is an upper bound on the optimum; ``bound`` is the least
such sum.  The singleton searches stop once their heap top exceeds
``bound``, and every later relaxation or merge above it is dropped.
This is exact: weights are ≥ 0, so no subtree of an optimal tree
weighs more than OPT ≤ ``bound``, and the states at or below ``bound``
are popped in the same ``(w, node)`` order and relaxed from the same
parents as in the unbounded DP — their values, back-pointers and the
``(w, node)`` minimum over ``dp[full]`` are the unbounded DP's.  The
3^ℓ merge structure is unchanged; only the states it visits shrink,
so the worst case stays exponential while the work in practice is
bounded by the optimum's weight.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.graph.data_graph import DataGraph
from repro.relational.database import TupleId
from repro.resilience.budget import QueryBudget
from repro.resilience.errors import BudgetExceededError, UnsupportedSchemaError

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
    node from each group.  More than *max_groups* groups raise
    :class:`UnsupportedSchemaError` (the DP is exponential in the group
    count).  An exhausted *budget* stops the DP early and returns the
    best tree covering all groups found so far (None if no mask reached
    full coverage yet); the budget's ``exhausted`` flag tells the caller
    the answer may be suboptimal.

    *span* (a tracing span, see :mod:`repro.obs.trace`) receives the
    DP's work counters — ``nodes_settled`` and ``masks`` — without
    altering the computation in any way.
    """
    g = len(groups)
    if g == 0:
        return None
    if g > max_groups:
        raise UnsupportedSchemaError(
            f"too many groups for exact DP ({g} > {max_groups})"
        )
    if any(not group for group in groups):
        return None

    index, ids, nbrs, wts = graph.index, graph.ids, graph.nbrs, graph.wts
    full = (1 << g) - 1
    # dp[mask][node] = best weight, nodes as integer ids.
    dp: List[Dict[int, float]] = [{} for _ in range(full + 1)]
    # back[mask][node] = parent node (grow) or (m1, m2) (merge); leaves absent.
    back: List[Dict[int, object]] = [{} for _ in range(full + 1)]

    for i, group in enumerate(groups):
        for match in group:
            node = index.get(match)
            if node is not None:
                dp[1 << i][node] = 0.0

    # One settled set per Dijkstra: the len() of each is the work done,
    # readable after a budget stop.
    settled: List[Set[int]] = [set() for _ in range(g)]
    masks_done = 0
    try:
        bound = _singleton_stars(dp, back, settled, nbrs, wts, budget)
        masks_done = g
        for mask in range(3, full + 1):
            if not mask & (mask - 1):
                continue  # a singleton: settled in lockstep above
            best, origin = dp[mask], back[mask]
            # Merge: combine proper submasks at the same root.
            sub = (mask - 1) & mask
            while sub:
                other = mask ^ sub
                if sub < other:  # each unordered pair once
                    dp_other = dp[other]
                    for node, w1 in dp[sub].items():
                        w2 = dp_other.get(node)
                        if w2 is not None:
                            w = w1 + w2
                            if w <= bound and w < best.get(node, INF):
                                best[node] = w
                                origin[node] = (sub, other)
                sub = (sub - 1) & mask
            # Grow: Dijkstra over dp[mask], every state within the bound.
            heap = [(w, n) for n, w in best.items()]
            heapq.heapify(heap)
            done: Set[int] = set()
            settled.append(done)
            while heap:
                w, node = heapq.heappop(heap)
                if node in done or w > best[node]:
                    continue
                done.add(node)
                if budget is not None:
                    budget.tick_nodes()
                for nbr, edge_w in zip(nbrs[node], wts[node]):
                    nw = w + edge_w
                    if nw <= bound and nw < best.get(nbr, INF):
                        best[nbr] = nw
                        origin[nbr] = node
                        heapq.heappush(heap, (nw, nbr))
            masks_done += 1
    except BudgetExceededError:
        # Out of budget mid-DP: fall through and reconstruct from
        # whatever full-coverage entries exist (possibly none).
        pass

    if span is not None:
        span.add("nodes_settled", sum(map(len, settled)))
        span.add("masks", masks_done)
    if not dp[full]:
        return None
    weight, root = min((w, n) for n, w in dp[full].items())
    edges: List[Tuple[int, int]] = []
    _reconstruct(full, root, back, edges)
    return SteinerTree(
        root=ids[root], edges=[(ids[u], ids[v]) for u, v in edges], weight=weight
    )


def _singleton_stars(
    dp: List[Dict[int, float]],
    back: List[Dict[int, object]],
    settled: List[Set[int]],
    nbrs: Sequence[Sequence[int]],
    wts: Sequence[Sequence[float]],
    budget: Optional[QueryBudget],
) -> float:
    """Run the ℓ singleton-mask Dijkstras in lockstep; return the bound.

    One heap of ``(w, node, i)`` entries advances whichever search has
    the smallest top, so each search still pops its own entries in
    ``(w, node)`` order.  When a node is settled by the last of the ℓ
    searches, its star weight is folded ``d_0 + (d_1 + (… + d_ℓ-1))`` —
    the association the merges use (a singleton lowest-bit submask
    plus the rest), so the float DP value at that node never exceeds
    it and ``bound`` ≥ OPT holds in floats too.  The lockstep stops
    once the heap top exceeds ``bound``.
    """
    g = len(settled)
    bound = INF
    hits: Dict[int, int] = {}
    heap = [(0.0, node, i) for i in range(g) for node in dp[1 << i]]
    heapq.heapify(heap)
    while heap and heap[0][0] <= bound:
        w, node, i = heapq.heappop(heap)
        done = settled[i]
        if node in done:
            continue
        done.add(node)
        if budget is not None:
            budget.tick_nodes()
        count = hits.get(node, 0) + 1
        hits[node] = count
        if count == g:
            star = dp[1 << (g - 1)][node]
            for j in range(g - 2, -1, -1):
                star = dp[1 << j][node] + star
            if star < bound:
                bound = star
        best, origin = dp[1 << i], back[1 << i]
        for nbr, edge_w in zip(nbrs[node], wts[node]):
            nw = w + edge_w
            if nw <= bound and nw < best.get(nbr, INF):
                best[nbr] = nw
                origin[nbr] = node
                heapq.heappush(heap, (nw, nbr, i))
    return bound


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
