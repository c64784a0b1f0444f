"""EASE: r-radius Steiner subgraphs (Li et al., SIGMOD 08; slides 31, 128).

An answer is a subgraph of radius <= r that matches every query keyword,
reduced to its *Steiner* part: only nodes lying on paths between keyword
matches survive ("less unnecessary nodes", slide 31).  We enumerate
candidate centers (nodes whose r-hop ball covers all keywords), extract
the Steiner nodes of each ball, and deduplicate by node set, keeping the
most compact representative.

**Skipping centers that cannot reach the top k.**  Centers are visited
in ascending order, so a new answer ties *after* every answer already
kept: once k distinct answers are kept and ``s_k`` is the k-th smallest
size, a new answer enters the top k only if it is strictly smaller.
The peel never removes a keyword node, so a ball holding ≥ ``s_k``
keyword nodes cannot yield one and its peel is skipped; once
``s_k ≤ 1`` no center can, and the scan stops.  A later center that
reaches a skipped node set cannot put it in the top k either: the set
holds ≥ ``s_k`` nodes and ``s_k`` only falls.  ``k=None`` peels every
center.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.graph.data_graph import DataGraph
from repro.index.distance import within_hops
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
    span=None,
) -> List[RadiusSteinerGraph]:
    """Enumerate r-radius Steiner subgraphs covering all keyword groups.

    Results are ordered by (size, center) — smaller (more compact)
    subgraphs first, matching EASE's compactness-oriented ranking.
    With *k* set, centers whose answer cannot enter the top k are not
    peeled (see the module docstring).  An exhausted *budget* stops
    center enumeration early and returns the answers found so far.

    *span* (a tracing span) receives the work counters ``centers``
    (candidates), ``centers_peeled`` and ``centers_skipped`` without
    altering the computation.
    """
    if not groups or any(not g for g in groups):
        return []
    index, ids, nbrs = graph.index, graph.ids, graph.nbrs
    group_sets = [{index[m] for m in g if m in index} for g in groups]
    # Steiner node set -> (smallest center, matched keyword nodes), as ids.
    answers: Dict[FrozenSet[int], Tuple[int, Set[int]]] = {}
    # The k smallest answer sizes so far, ascending (k set only).
    sizes: List[int] = []
    candidates = peeled = skipped = 0
    try:
        # A ball of radius r covers a group iff its center is within r
        # hops of a member, so only those nodes can be centers.
        centers: Optional[Set[int]] = None
        for gs in group_sets:
            reach = within_hops(graph, gs, r).keys()
            if budget is not None:
                budget.tick_nodes(max(1, len(reach)))
            centers = set(reach) if centers is None else centers & reach
        order = sorted(centers)
        candidates = len(order)
        for position, center in enumerate(order):
            full = k and len(sizes) == k
            if full and sizes[-1] <= 1:
                skipped += candidates - position
                break
            members = within_hops(graph, (center,), r)
            if budget is not None:
                budget.tick_nodes(len(members))
            keyword_nodes = set().union(*(members.keys() & gs for gs in group_sets))
            if full and len(keyword_nodes) >= sizes[-1]:
                skipped += 1
                continue
            peeled += 1
            steiner = frozenset(_steiner_reduce(nbrs, members, keyword_nodes))
            if steiner not in answers:  # centers ascend: the first is smallest
                answers[steiner] = (center, keyword_nodes)
                if k is not None:
                    insort(sizes, len(steiner))
                    del sizes[k:]
    except BudgetExceededError:
        pass  # partial enumeration; caller sees budget.exhausted
    if span is not None:
        span.add("centers", candidates)
        span.add("centers_peeled", peeled)
        span.add("centers_skipped", skipped)
    ranked = sorted(answers.items(), key=lambda item: (len(item[0]), item[1][0]))
    return [
        RadiusSteinerGraph(
            center=ids[center],
            nodes=frozenset(ids[n] for n in nodes),
            keyword_nodes=frozenset(ids[n] for n in keyword_nodes),
        )
        for nodes, (center, keyword_nodes) in (ranked[:k] if k is not None else ranked)
    ]


def _steiner_reduce(
    nbrs: Sequence[Sequence[int]], members: Iterable[int], keyword_nodes: Set[int]
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
