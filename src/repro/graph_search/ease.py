"""EASE: r-radius Steiner subgraphs (Li et al., SIGMOD 08; slides 31, 128).

An answer is a subgraph of radius <= r that matches every query keyword,
reduced to its *Steiner* part: only nodes lying on paths between keyword
matches survive ("less unnecessary nodes", slide 31).  We enumerate
candidate centers (nodes whose r-hop ball covers all keywords), extract
the Steiner nodes of each ball, and deduplicate by node set, keeping the
most compact representative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.graph.data_graph import DataGraph
from repro.relational.database import TupleId
from repro.resilience.budget import QueryBudget
from repro.resilience.errors import BudgetExceededError


@dataclass(frozen=True)
class RadiusSteinerGraph:
    """One EASE answer: center, Steiner node set, matched keyword nodes."""

    center: TupleId
    nodes: FrozenSet[TupleId]
    keyword_nodes: FrozenSet[TupleId]

    def size(self) -> int:
        return len(self.nodes)


def r_radius_steiner_graphs(
    graph: DataGraph,
    groups: Sequence[Sequence[TupleId]],
    r: int = 2,
    k: Optional[int] = None,
    budget: Optional[QueryBudget] = None,
) -> List[RadiusSteinerGraph]:
    """Enumerate r-radius Steiner subgraphs covering all keyword groups.

    Results are ordered by (size, center) — smaller (more compact)
    subgraphs first, matching EASE's compactness-oriented ranking.
    An exhausted *budget* stops center enumeration early and returns
    the answers found so far.
    """
    if not groups or any(not g for g in groups):
        return []
    cg = graph.compact()
    index, ids, nbrs = cg.index, cg.ids, cg.nbrs
    group_sets = [{index[m] for m in g if m in index} for g in groups]
    # Steiner node set -> (smallest center, matched keyword nodes), compact ints.
    answers: Dict[FrozenSet[int], Tuple[int, Set[int]]] = {}
    try:
        # A ball of radius r covers a group iff its center is within r
        # hops of a member, so only those nodes can be centers.
        centers: Optional[Set[int]] = None
        for gs in group_sets:
            reach = _within_hops(nbrs, gs, r)
            if budget is not None:
                budget.tick_nodes(max(1, len(reach)))
            centers = reach if centers is None else centers & reach
        for center in sorted(centers):
            members = _within_hops(nbrs, (center,), r)
            if budget is not None:
                budget.tick_nodes(len(members))
            keyword_nodes = set().union(*(members & gs for gs in group_sets))
            steiner = frozenset(_steiner_reduce(nbrs, members, keyword_nodes))
            if steiner not in answers:  # centers ascend: the first is smallest
                answers[steiner] = (center, keyword_nodes)
    except BudgetExceededError:
        pass  # partial enumeration; caller sees budget.exhausted
    ranked = sorted(answers.items(), key=lambda item: (len(item[0]), item[1][0]))
    return [
        RadiusSteinerGraph(
            center=ids[center],
            nodes=frozenset(ids[n] for n in nodes),
            keyword_nodes=frozenset(ids[n] for n in keyword_nodes),
        )
        for nodes, (center, keyword_nodes) in (ranked[:k] if k is not None else ranked)
    ]


def _within_hops(nbrs: List[List[int]], sources: Iterable[int], r: int) -> Set[int]:
    """Nodes at most *r* hops from any of *sources* (level-by-level BFS)."""
    seen = set(sources)
    frontier = list(seen)
    for _ in range(r):
        nxt = []
        for node in frontier:
            for nbr in nbrs[node]:
                if nbr not in seen:
                    seen.add(nbr)
                    nxt.append(nbr)
        if not nxt:
            break
        frontier = nxt
    return seen


def _steiner_reduce(
    nbrs: List[List[int]], members: Set[int], keyword_nodes: Set[int]
) -> Set[int]:
    """Drop ball nodes not on any path between keyword nodes.

    Standard reduction on the induced subgraph: peel non-keyword nodes
    of degree <= 1 until none is left; what remains is the union of
    paths among keyword nodes (plus cycles through them).  Peeling only
    lowers degrees, so the fixpoint does not depend on the order: a
    worklist reaches it in time linear in the ball's edges.
    """
    alive = set(members)
    degree = {n: len(alive.intersection(nbrs[n])) for n in members}
    peel = [n for n in members if degree[n] <= 1 and n not in keyword_nodes]
    while peel:
        node = peel.pop()
        alive.discard(node)
        for nbr in nbrs[node]:
            if nbr in alive and nbr not in keyword_nodes:
                degree[nbr] -= 1
                if degree[nbr] == 1:
                    peel.append(nbr)
    return alive
