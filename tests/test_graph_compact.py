"""Generated differential test for the graph search loops.

``graph_search`` and ``index.distance`` walk :class:`DataGraph`'s
integer-id adjacency.  The ``TupleId``-keyed loops they replaced live on
in this file, verbatim, as the oracle; they walk :class:`DictGraph`, a
``TupleId`` dict adjacency built here from the same node and edge
lists.  On generated graphs (tied and non-unit weights, disconnected
parts, hubs; groups with duplicate matches and with ids the graph does
not hold) all five methods and ``bounded_bfs_distances`` must return
equal answers — tie-broken roots, edges and matches included — and
report equal ``nodes_expanded``.  The Steiner DP runs bounded by the
cheapest star, so it must use the oracle's ``masks`` and settle no more
nodes; EASE skips centers that cannot reach the top k, so with a ``k``
it spends no more budget than a full enumeration.

Weights are multiples of 0.25, so every path length is exact in floats
and "equally near" means the same to both implementations; one Steiner
property mixes in zero and wide-range weights, where float rounding is
what the star bound must survive.
"""

from __future__ import annotations

import heapq
import math
import sys
import threading
import time
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from hypothesis import given, settings, strategies as st

from repro.core import engine as engine_module

from repro.core.engine import KeywordSearchEngine
from repro.datasets.bibliographic import tiny_bibliographic_db
from repro.graph.data_graph import DataGraph
from repro.graph_search import banks, ease, semantics, star, steiner
from repro.graph_search.banks import BanksResult
from repro.graph_search.ease import RadiusSteinerGraph
from repro.graph_search.semantics import RootedAnswer
from repro.graph_search.steiner import SteinerTree
from repro.index import distance
from repro.relational.database import TupleId
from repro.resilience.budget import QueryBudget
from repro.resilience.errors import BudgetExceededError

INF = float("inf")


# ----------------------------------------------------------------------
# The oracle: the TupleId-keyed implementations the int loops replaced
# ----------------------------------------------------------------------
class DictGraph:
    """``TupleId -> {TupleId: weight}`` adjacency, built by the rules
    :class:`DataGraph` keeps: self-loops dropped, parallel edges keep
    the lightest weight."""

    def __init__(self, nodes: Iterable[TupleId], edges) -> None:
        self._adj: Dict[TupleId, Dict[TupleId, float]] = {n: {} for n in nodes}
        for u, v, w in edges:
            if u == v:
                continue
            self._adj.setdefault(u, {})
            self._adj.setdefault(v, {})
            existing = self._adj[u].get(v)
            if existing is None or w < existing:
                self._adj[u][v] = w
                self._adj[v][u] = w

    def __contains__(self, node: TupleId) -> bool:
        return node in self._adj

    @property
    def nodes(self) -> List[TupleId]:
        return list(self._adj)

    def neighbors(self, node: TupleId):
        return iter(self._adj.get(node, {}).items())

    def degree(self, node: TupleId) -> int:
        return len(self._adj.get(node, {}))

    def edge_weight(self, u: TupleId, v: TupleId) -> Optional[float]:
        return self._adj.get(u, {}).get(v)

    def bfs_hops(self, source: TupleId, max_hops: Optional[int] = None) -> Dict[TupleId, int]:
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


def both(nodes: Sequence[TupleId], edges) -> Tuple[DataGraph, DictGraph]:
    """The graph under test and its oracle, from one node and edge list."""
    return DataGraph(dict.fromkeys(nodes, 0.0), edges), DictGraph(nodes, edges)


def bounded_bfs_distances(
    graph: DictGraph, sources: Iterable[TupleId], max_distance: float
) -> Dict[TupleId, float]:
    """Multi-source Dijkstra: distance from each node to its nearest source."""
    dist: Dict[TupleId, float] = {}
    heap: List[Tuple[float, TupleId]] = []
    for source in sources:
        if source in graph:
            dist[source] = 0.0
            heapq.heappush(heap, (0.0, source))
    settled: set = set()
    while heap:
        d, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        for nbr, weight in graph.neighbors(node):
            nd = d + weight
            if nd > max_distance:
                continue
            if nd < dist.get(nbr, float("inf")):
                dist[nbr] = nd
                heapq.heappush(heap, (nd, nbr))
    return {n: d for n, d in dist.items() if n in settled}


def group_steiner_dp(
    graph: DictGraph,
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

    full = (1 << g) - 1
    # dp[mask][node] = best weight; parent pointers for reconstruction.
    dp: List[Dict[TupleId, float]] = [{} for _ in range(full + 1)]
    # back[mask][node] = ("edge", u) or ("merge", m1, m2)
    back: List[Dict[TupleId, Tuple]] = [{} for _ in range(full + 1)]

    for i, group in enumerate(groups):
        mask = 1 << i
        for node in group:
            if node in graph and dp[mask].get(node, INF) > 0.0:
                dp[mask][node] = 0.0
                back[mask][node] = ("leaf",)

    nodes_settled = 0
    masks_done = 0
    try:
        for mask in range(1, full + 1):
            # Merge: combine proper submasks at the same root.
            sub = (mask - 1) & mask
            while sub:
                other = mask ^ sub
                if sub < other:  # each unordered pair once
                    for node, w1 in dp[sub].items():
                        w2 = dp[other].get(node)
                        if w2 is None:
                            continue
                        if w1 + w2 < dp[mask].get(node, INF):
                            dp[mask][node] = w1 + w2
                            back[mask][node] = ("merge", sub, other)
                sub = (sub - 1) & mask
            # Grow: Dijkstra over dp[mask].
            heap = [(w, n) for n, w in dp[mask].items()]
            heapq.heapify(heap)
            settled: Set[TupleId] = set()
            while heap:
                w, node = heapq.heappop(heap)
                if node in settled or w > dp[mask].get(node, INF):
                    continue
                settled.add(node)
                if budget is not None:
                    budget.tick_nodes()
                for nbr, edge_w in graph.neighbors(node):
                    nw = w + edge_w
                    if nw < dp[mask].get(nbr, INF):
                        dp[mask][nbr] = nw
                        back[mask][nbr] = ("edge", node)
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
    root = min(dp[full], key=lambda n: (dp[full][n], n))
    edges: List[Tuple[TupleId, TupleId]] = []
    _reconstruct(full, root, back, edges)
    return SteinerTree(root=root, edges=edges, weight=dp[full][root])


def _reconstruct(
    mask: int,
    node: TupleId,
    back: List[Dict[TupleId, Tuple]],
    edges: List[Tuple[TupleId, TupleId]],
) -> None:
    entry = back[mask].get(node)
    if entry is None or entry[0] == "leaf":
        return
    if entry[0] == "edge":
        parent = entry[1]
        edges.append((parent, node))
        _reconstruct(mask, parent, back, edges)
    else:
        __, sub, other = entry
        _reconstruct(sub, node, back, edges)
        _reconstruct(other, node, back, edges)


def _result_tree(
    graph: DictGraph,
    root: TupleId,
    parents: List[Dict[TupleId, Optional[TupleId]]],
    dists: List[Dict[TupleId, float]],
) -> SteinerTree:
    """Union of shortest paths from *root* back to each group."""
    edges: Set[Tuple[TupleId, TupleId]] = set()
    for parent in parents:
        node = root
        while parent.get(node) is not None:
            prev = parent[node]
            edge = (min(node, prev), max(node, prev))
            edges.add(edge)
            node = prev
    weight = sum(graph.edge_weight(u, v) or 0.0 for u, v in edges)
    return SteinerTree(root=root, edges=sorted(edges), weight=weight)


def _expand(
    graph: DictGraph,
    groups: Sequence[Sequence[TupleId]],
    k: int,
    priority: Callable[[float, int, TupleId], float],
    budget: Optional[QueryBudget] = None,
    span=None,
) -> BanksResult:
    g = len(groups)
    if g == 0 or any(not group for group in groups):
        return BanksResult([], 0)
    dists: List[Dict[TupleId, float]] = [dict() for _ in range(g)]
    parents: List[Dict[TupleId, Optional[TupleId]]] = [dict() for _ in range(g)]
    settled: List[Set[TupleId]] = [set() for _ in range(g)]
    heap: List[Tuple[float, float, int, TupleId]] = []
    for i, group in enumerate(groups):
        for node in group:
            if node in graph:
                dists[i][node] = 0.0
                parents[i][node] = None
                heapq.heappush(heap, (priority(0.0, i, node), 0.0, i, node))
    nodes_expanded = 0
    confirmed: Dict[TupleId, float] = {}

    try:
        nodes_expanded = _expand_loop(
            graph, groups, k, priority, budget, dists, parents, settled, heap, confirmed
        )
    except BudgetExceededError:
        # Out of budget: fall through with whatever roots are confirmed
        # so far (the engine flags the result set as degraded).
        nodes_expanded = budget.nodes_expanded if budget is not None else 0

    roots = sorted(confirmed.items(), key=lambda item: (item[1], item[0]))[:k]
    trees = [_result_tree(graph, root, parents, dists) for root, _ in roots]
    if span is not None:
        span.add("nodes_expanded", nodes_expanded)
        span.add("roots_confirmed", len(confirmed))
    return BanksResult(trees, nodes_expanded)


def _expand_loop(
    graph: DictGraph,
    groups: Sequence[Sequence[TupleId]],
    k: int,
    priority: Callable[[float, int, TupleId], float],
    budget: Optional[QueryBudget],
    dists: List[Dict[TupleId, float]],
    parents: List[Dict[TupleId, Optional[TupleId]]],
    settled: List[Set[TupleId]],
    heap: List[Tuple[float, float, int, TupleId]],
    confirmed: Dict[TupleId, float],
) -> int:
    g = len(groups)
    nodes_expanded = 0
    while heap:
        prio, dist, i, node = heapq.heappop(heap)
        if node in settled[i]:
            continue
        settled[i].add(node)
        nodes_expanded += 1
        if budget is not None:
            budget.tick_nodes()
        if all(node in s for s in settled):
            confirmed[node] = sum(d[node] for d in dists)
        # Termination: k confirmed roots whose cost beats the optimistic
        # bound for any unconfirmed root (sum of current frontier minima).
        if len(confirmed) >= k:
            bound = 0.0
            remaining_min = [INF] * g
            for _, d2, gi, n2 in heap:
                if n2 not in settled[gi] and d2 < remaining_min[gi]:
                    remaining_min[gi] = d2
            bound = sum(m if m < INF else 0.0 for m in remaining_min)
            kth = sorted(confirmed.values())[k - 1]
            if kth <= bound:
                break
        for nbr, w in graph.neighbors(node):
            nd = dist + w
            if nd < dists[i].get(nbr, INF):
                dists[i][nbr] = nd
                parents[i][nbr] = node
                heapq.heappush(heap, (priority(nd, i, nbr), nd, i, nbr))

    return nodes_expanded


def banks_backward(
    graph: DictGraph,
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
    graph: DictGraph,
    groups: Sequence[Sequence[TupleId]],
    k: int = 10,
    budget: Optional[QueryBudget] = None,
    span=None,
) -> BanksResult:
    """BANKS II: activation-prioritised expansion (see module docstring)."""
    sizes = [max(1, len(group)) for group in groups]

    def priority(dist: float, i: int, node: TupleId) -> float:
        activation = math.log(2 + sizes[i]) * math.log(2 + graph.degree(node))
        return dist * activation

    return _expand(graph, groups, k, priority=priority, budget=budget, span=span)


def r_radius_steiner_graphs(
    graph: DictGraph,
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
    group_sets = [set(g) for g in groups]
    all_matches: Set[TupleId] = set().union(*group_sets)
    answers: Dict[FrozenSet[TupleId], RadiusSteinerGraph] = {}
    try:
        for center in graph.nodes:
            ball = graph.bfs_hops(center, max_hops=r)
            members = set(ball)
            if budget is not None:
                budget.tick_nodes(max(1, len(members)))
            matched = [members & gs for gs in group_sets]
            if not all(matched):
                continue
            keyword_nodes = set().union(*matched)
            steiner = _steiner_reduce(graph, members, keyword_nodes, center)
            key = frozenset(steiner)
            existing = answers.get(key)
            candidate = RadiusSteinerGraph(
                center=center,
                nodes=frozenset(steiner),
                keyword_nodes=frozenset(keyword_nodes),
            )
            if existing is None or candidate.center < existing.center:
                answers[key] = candidate
    except BudgetExceededError:
        pass  # partial enumeration; caller sees budget.exhausted
    out = sorted(answers.values(), key=lambda a: (a.size(), a.center))
    return out[:k] if k is not None else out


def _steiner_reduce(
    graph: DictGraph,
    members: Set[TupleId],
    keyword_nodes: Set[TupleId],
    center: TupleId,
) -> Set[TupleId]:
    """Drop ball nodes not on any path between keyword nodes.

    Standard reduction on the induced subgraph: iteratively peel
    degree-<=1 nodes that are not keyword nodes; what remains is the
    union of paths among keyword nodes (plus cycles through them).
    """
    sub = {n: set() for n in members}
    for n in members:
        for nbr, _ in graph.neighbors(n):
            if nbr in members:
                sub[n].add(nbr)
    changed = True
    alive = set(members)
    while changed:
        changed = False
        for node in list(alive):
            if node in keyword_nodes:
                continue
            degree = len(sub[node] & alive)
            if degree <= 1:
                alive.discard(node)
                changed = True
    return alive if alive else set(keyword_nodes)


def _distance_maps(
    graph: DictGraph,
    groups: Sequence[Sequence[TupleId]],
    dmax: float,
) -> List[Dict[TupleId, Dict[TupleId, float]]]:
    """Per group: match node -> {node within dmax: distance}."""
    out: List[Dict[TupleId, Dict[TupleId, float]]] = []
    for group in groups:
        per_match: Dict[TupleId, Dict[TupleId, float]] = {}
        for match in group:
            per_match[match] = bounded_bfs_distances(graph, [match], dmax)
        out.append(per_match)
    return out


def distinct_root_results(
    graph: DictGraph,
    groups: Sequence[Sequence[TupleId]],
    dmax: float = 4.0,
    k: Optional[int] = None,
) -> List[RootedAnswer]:
    """All roots within *dmax* of every group, cheapest matches chosen."""
    if not groups or any(not g for g in groups):
        return []
    # nearest-match distance per group via multi-source search
    per_group = [bounded_bfs_distances(graph, group, dmax) for group in groups]
    maps = _distance_maps(graph, groups, dmax)
    answers = []
    candidates = set(per_group[0])
    for m in per_group[1:]:
        candidates &= set(m)
    for root in sorted(candidates):
        cost = sum(m[root] for m in per_group)
        matches = []
        for gi, group in enumerate(groups):
            best_match = None
            best_d = INF
            for match in group:
                d = maps[gi][match].get(root)
                if d is not None and d < best_d:
                    best_d = d
                    best_match = match
            matches.append(best_match)
        answers.append(RootedAnswer(root, tuple(matches), cost))
    answers.sort(key=lambda a: (a.cost, a.root))
    return answers[:k] if k is not None else answers


# ----------------------------------------------------------------------
# Generated inputs
# ----------------------------------------------------------------------
WEIGHTS = (0.25, 0.5, 1.0, 1.0, 1.5, 2.0)
TABLES = ("a", "b", "c")


class Counters:
    """Stand-in tracing span: collects the work counters."""

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}

    def add(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


#: Zero, multiples of 0.25 and weights across nine orders of magnitude.
WIDE_WEIGHTS = st.one_of(
    st.just(0.0),
    st.integers(1, 16).map(lambda i: i * 0.25),
    st.floats(1e-3, 1e6),
)


@st.composite
def graphs_and_groups(draw, weights=st.sampled_from(WEIGHTS), max_groups=3):
    """A small graph's nodes and edges plus 1-*max_groups* keyword
    groups over it, edge weights drawn from *weights*.

    Edges are drawn with repeats (a later, lighter copy lowers the
    weight), a hub is wired to a drawn subset, and sparse edge lists
    leave disconnected parts.  Group members repeat and may name ids the
    graph does not hold.
    """
    n = draw(st.integers(1, 12))
    nodes = [TupleId(draw(st.sampled_from(TABLES)), i) for i in range(n)]
    draw(st.randoms(use_true_random=False)).shuffle(nodes)
    positions = st.integers(0, n - 1)
    edges = [
        (nodes[u], nodes[v], w)
        for u, v, w in draw(
            st.lists(st.tuples(positions, positions, weights), max_size=24)
        )
    ]
    hub = nodes[draw(positions)]
    for spoke in draw(st.lists(positions, max_size=8)):
        edges.append((hub, nodes[spoke], draw(weights)))
    member = st.one_of(
        positions.map(nodes.__getitem__),
        st.integers(0, 2).map(lambda i: TupleId("zzz", i)),
    )
    groups = draw(
        st.lists(st.lists(member, min_size=1, max_size=5), min_size=1, max_size=max_groups)
    )
    return nodes, edges, groups


budgets = st.one_of(st.none(), st.integers(1, 40))


def budget_pair(max_nodes: Optional[int]):
    if max_nodes is None:
        return None, None
    return QueryBudget(max_nodes=max_nodes), QueryBudget(max_nodes=max_nodes)


def spent(budget: Optional[QueryBudget]):
    return None if budget is None else (budget.nodes_expanded, budget.exhausted)


# ----------------------------------------------------------------------
# Differential properties
# ----------------------------------------------------------------------
@settings(deadline=None)
@given(graphs_and_groups(), st.floats(0.0, 6.0))
def test_bounded_bfs_distances_matches_oracle(case, max_distance):
    nodes, edges, groups = case
    graph, oracle = both(nodes, edges)
    for group in groups:
        assert distance.bounded_bfs_distances(
            graph, group, max_distance
        ) == bounded_bfs_distances(oracle, group, max_distance)


def assert_bounded_work(new_span: Counters, old_span: Counters) -> None:
    """The star-bounded DP runs the oracle's masks and settles no more."""
    new, old = new_span.counts, old_span.counts
    assert new.get("masks") == old.get("masks")
    assert new.get("nodes_settled", 0) <= old.get("nodes_settled", 0)


def covers(tree: SteinerTree, groups) -> bool:
    return all(tree.nodes & set(group) for group in groups)


@settings(deadline=None)
@given(graphs_and_groups(), budgets)
def test_steiner_dp_matches_oracle(case, max_nodes):
    """Unbudgeted: the oracle's tree, masks, and no more settled nodes.
    Budgeted: the unbudgeted oracle's tree unless the budget ran out, and
    any tree returned covers every group and weighs at least the optimum."""
    nodes, edges, groups = case
    graph, oracle = both(nodes, edges)
    old_span, new_span = Counters(), Counters()
    optimum = group_steiner_dp(oracle, groups, span=old_span)
    assert steiner.group_steiner_dp(graph, groups, span=new_span) == optimum
    assert_bounded_work(new_span, old_span)
    if max_nodes is None:
        return
    budget = QueryBudget(max_nodes=max_nodes)
    tree = steiner.group_steiner_dp(graph, groups, budget=budget)
    assert budget.exhausted or tree == optimum
    if tree is not None:
        assert optimum is not None and covers(tree, groups)
        assert tree.weight >= optimum.weight


@settings(deadline=None)
@given(graphs_and_groups(weights=WIDE_WEIGHTS, max_groups=4))
def test_steiner_star_bound_exact_on_wide_weights(case):
    """Zero edges, exact quarters and weights from 1e-3 to 1e6 in one
    graph: the float star bound never cuts the optimum off, and the DP
    never settles more nodes than the unbounded oracle."""
    nodes, edges, groups = case
    graph, oracle = both(nodes, edges)
    old_span, new_span = Counters(), Counters()
    assert steiner.group_steiner_dp(graph, groups, span=new_span) == group_steiner_dp(
        oracle, groups, span=old_span
    )
    assert_bounded_work(new_span, old_span)


@settings(deadline=None)
@given(graphs_and_groups(), st.integers(1, 6), budgets, st.booleans())
def test_banks_matches_oracle(case, k, max_nodes, bidirectional):
    nodes, edges, groups = case
    graph, oracle = both(nodes, edges)
    old_algo = banks_bidirectional if bidirectional else banks_backward
    new_algo = banks.banks_bidirectional if bidirectional else banks.banks_backward
    old_budget, new_budget = budget_pair(max_nodes)
    old_span, new_span = Counters(), Counters()
    old = old_algo(oracle, groups, k=k, budget=old_budget, span=old_span)
    new = new_algo(graph, groups, k=k, budget=new_budget, span=new_span)
    assert new.trees == old.trees
    assert new.nodes_expanded == old.nodes_expanded
    assert new_span.counts == old_span.counts
    assert spent(new_budget) == spent(old_budget)


@settings(deadline=None)
@given(graphs_and_groups(), st.integers(0, 3), st.one_of(st.none(), st.integers(1, 4)))
def test_ease_matches_oracle(case, r, k):
    nodes, edges, groups = case
    graph, oracle = both(nodes, edges)
    assert ease.r_radius_steiner_graphs(
        graph, groups, r=r, k=k
    ) == r_radius_steiner_graphs(oracle, groups, r=r, k=k)


@settings(deadline=None)
@given(graphs_and_groups(), st.integers(0, 3), st.integers(1, 4))
def test_ease_top_k_spends_no_more_than_full_enumeration(case, r, k):
    """Skipping centers that cannot reach the top k changes no answer
    and never costs budget: every candidate is peeled or skipped."""
    nodes, edges, groups = case
    graph, _ = both(nodes, edges)
    every_budget, top_budget = QueryBudget(), QueryBudget()
    every_span, top_span = Counters(), Counters()
    every = ease.r_radius_steiner_graphs(
        graph, groups, r=r, budget=every_budget, span=every_span
    )
    top = ease.r_radius_steiner_graphs(
        graph, groups, r=r, k=k, budget=top_budget, span=top_span
    )
    assert top == every[:k]
    assert top_budget.nodes_expanded <= every_budget.nodes_expanded
    centers = every_span.counts.get("centers", 0)
    assert every_span.counts.get("centers_peeled", 0) == centers
    assert top_span.counts.get("centers", 0) == centers
    assert (
        top_span.counts.get("centers_peeled", 0)
        + top_span.counts.get("centers_skipped", 0)
        == centers
    )


def test_ease_skip_and_stop_boundaries():
    """k=1, r=1, centers visited in id order.  First graph: a 3-node
    answer is kept, then a center whose ball holds 2 keyword nodes must
    still be peeled (2 < 3) and wins; the next center's 2 keyword nodes
    tie the kept size and are skipped.  Second graph: a 2-node answer,
    a skipped tie, then a 1-node answer that must still be found; after
    it no center can win and the scan stops."""
    t = [TupleId("t", i) for i in range(5)]
    cases = [
        # m=t0 joins a1=t1 and b1=t2; a2=t3 and b2=t4 are adjacent.
        (t, [(t[0], t[1], 1.0), (t[0], t[2], 1.0), (t[3], t[4], 1.0)],
         [[t[1], t[3]], [t[2], t[4]]], {t[3], t[4]}, (3, 2, 1)),
        # a1=t0 and b1=t1 are adjacent; t2 and t3 match both groups.
        (t[:4], [(t[0], t[1], 1.0)],
         [[t[0], t[2], t[3]], [t[1], t[2], t[3]]], {t[2]}, (4, 2, 2)),
    ]
    for nodes, edges, groups, nodes_won, counts in cases:
        graph, oracle = both(nodes, edges)
        span = Counters()
        top = ease.r_radius_steiner_graphs(graph, groups, r=1, k=1, span=span)
        assert top == r_radius_steiner_graphs(oracle, groups, r=1, k=1)
        assert top[0].nodes == nodes_won
        assert counts == tuple(
            span.counts[c] for c in ("centers", "centers_peeled", "centers_skipped")
        )


@settings(deadline=None)
@given(
    graphs_and_groups(),
    st.sampled_from((0.0, 0.75, 1.0, 2.5, 4.0)),
    st.one_of(st.none(), st.integers(1, 4)),
)
def test_distinct_root_matches_oracle(case, dmax, k):
    nodes, edges, groups = case
    graph, oracle = both(nodes, edges)
    assert semantics.distinct_root_results(
        graph, groups, dmax=dmax, k=k
    ) == distinct_root_results(oracle, groups, dmax=dmax, k=k)


@settings(deadline=None)
@given(graphs_and_groups(), st.integers(1, 30))
def test_budgeted_partials_are_exact_answers(case, max_nodes):
    """EASE and distinct root charge their budget differently from the
    oracle (only enumerated centers; one search per group), so a cut-off
    run is checked against the full answer set instead."""
    nodes, edges, groups = case
    graph, oracle = both(nodes, edges)
    budget = QueryBudget(max_nodes=max_nodes)
    partial = semantics.distinct_root_results(graph, groups, dmax=4.0, budget=budget)
    full = semantics.distinct_root_results(graph, groups, dmax=4.0)
    assert set(partial) <= set(full)
    assert budget.exhausted or partial == full
    budget = QueryBudget(max_nodes=max_nodes)
    partial = ease.r_radius_steiner_graphs(graph, groups, r=2, budget=budget)
    full = r_radius_steiner_graphs(oracle, groups, r=2)
    assert {a.nodes for a in partial} <= {a.nodes for a in full}
    assert budget.exhausted or partial == full


def test_slide30_graph_counters_match_oracle():
    """The slide-30 graph of test_graph_search.py, non-unit weights."""

    def n(i: int) -> TupleId:
        return TupleId("n", i)

    graph, oracle = both([], [
        (n(u), n(v), float(w))
        for u, v, w in [(1, 2, 5), (1, 4, 6), (2, 3, 7), (2, 4, 10), (3, 4, 11),
                        (4, 5, 2), (4, 6, 3), (4, 7, 1), (5, 6, 1), (1, 5, 4)]
    ])
    groups = [[n(1)], [n(3), n(6)], [n(7)]]
    old_span, new_span = Counters(), Counters()
    assert steiner.group_steiner_dp(
        graph, groups, span=new_span
    ) == group_steiner_dp(oracle, groups, span=old_span)
    assert_bounded_work(new_span, old_span)
    # The star bound (8, at n5) stops the singleton searches: 38 of 49.
    assert (new_span.counts, old_span.counts) == (
        {"nodes_settled": 38, "masks": 7},
        {"nodes_settled": 49, "masks": 7},
    )
    for new_algo, old_algo in (
        (banks.banks_backward, banks_backward),
        (banks.banks_bidirectional, banks_bidirectional),
    ):
        new, old = new_algo(graph, groups, k=3), old_algo(oracle, groups, k=3)
        assert (new.trees, new.nodes_expanded) == (old.trees, old.nodes_expanded)


def test_distinct_root_tie_goes_to_the_earlier_match():
    """Two matches 1.5 away over different weight splits: the search
    reaches the root from the later match first and must still relabel
    it with the earlier one, as the per-match oracle chooses."""
    early, late, x, y, root = (TupleId("t", i) for i in range(5))
    graph, oracle = both(
        [], ((late, x, 0.5), (x, root, 1.0), (early, y, 1.0), (y, root, 0.5))
    )
    groups = [[early, late], [root]]
    answers = semantics.distinct_root_results(graph, groups, dmax=4.0)
    assert answers == distinct_root_results(oracle, groups, dmax=4.0)
    assert RootedAnswer(root, (early, root), 1.5) in answers


def test_distinct_root_runs_one_search_per_group(monkeypatch, tiny_graph, tiny_index):
    calls = []
    search = semantics.nearest_source_labels

    def counting(*args, **kwargs):
        calls.append(1)
        return search(*args, **kwargs)

    monkeypatch.setattr(semantics, "nearest_source_labels", counting)
    groups = [
        sorted(tiny_index.matching_tuples("xml")),
        sorted(tiny_index.matching_tuples("widom")),
        sorted(tiny_index.matching_tuples("data")),
    ]
    assert sum(len(g) for g in groups) > len(groups)
    oracle = DictGraph(tiny_graph.ids, tiny_graph.edges())
    answers = semantics.distinct_root_results(tiny_graph, groups, dmax=4.0)
    assert answers == distinct_root_results(oracle, groups, dmax=4.0)
    assert answers and len(calls) == len(groups)


# ----------------------------------------------------------------------
# Construction order and the graph's lifetime
# ----------------------------------------------------------------------
@settings(deadline=None)
@given(graphs_and_groups(), st.randoms(use_true_random=False))
def test_answers_do_not_depend_on_insertion_order(case, rng):
    """Every method breaks ties in ``TupleId`` order, so permuting the
    node order, the edge order and each edge's endpoints changes no
    answer."""
    nodes, edges, groups = case
    shuffled_nodes, shuffled_edges = list(nodes), [(v, u, w) for u, v, w in edges]
    rng.shuffle(shuffled_nodes)
    rng.shuffle(shuffled_edges)
    graphs = [
        DataGraph(dict.fromkeys(nodes, 0.0), edges),
        DataGraph(dict.fromkeys(shuffled_nodes, 0.0), shuffled_edges),
    ]
    first, second = (
        [
            banks.banks_backward(g, groups, k=3),
            banks.banks_bidirectional(g, groups, k=3),
            steiner.group_steiner_dp(g, groups),
            star.star_approximation(g, groups),
            ease.r_radius_steiner_graphs(g, groups, r=2),
            semantics.distinct_root_results(g, groups, dmax=4.0),
        ]
        for g in graphs
    )
    assert first == second


def test_ids_sorted_and_adjacency_parallel():
    nodes = [TupleId(table, rowid) for table, rowid in (("b", 1), ("a", 2), ("b", 0), ("a", 10))]
    graph = DataGraph(dict.fromkeys(nodes, 0.0), [(TupleId("b", 1), TupleId("a", 10), 2.0)])
    assert graph.ids == sorted(nodes) == graph.nodes
    assert [graph.ids[i] for i in range(len(graph.ids))] == [
        t for t, _ in sorted(graph.index.items(), key=lambda kv: kv[1])
    ]
    u, v = graph.index[TupleId("b", 1)], graph.index[TupleId("a", 10)]
    assert (graph.nbrs[u], graph.wts[u]) == ((v,), (2.0,))
    assert (graph.nbrs[v], graph.wts[v]) == ((u,), (2.0,))


def test_engine_answers_graph_query_right_after_insert():
    db = tiny_bibliographic_db()
    engine = KeywordSearchEngine(db)
    assert not engine.search("zebrafish widom", method="banks", use_cache=False)
    old_graph = engine.data_graph
    author = next(r for r in db.rows("author") if "widom" in r["name"].lower())
    pid = max(r["pid"] for r in db.rows("paper")) + 1
    cid = next(iter(db.rows("conference")))["cid"]
    db.insert("paper", pid=pid, title="zebrafish genomes", cid=cid)
    db.insert("write", wid=max(r["wid"] for r in db.rows("write")) + 1,
              aid=author["aid"], pid=pid)
    paper = TupleId("paper", len(db.table("paper")) - 1)
    fresh = KeywordSearchEngine(db)
    for method in ("banks", "banks2", "steiner", "distinct_root", "ease"):
        got = engine.search("zebrafish widom", method=method, use_cache=False)
        want = fresh.search("zebrafish widom", method=method, use_cache=False)
        assert got and paper in got[0].tuple_ids(), method
        assert [(r.score, r.tuple_ids()) for r in got] == [
            (r.score, r.tuple_ids()) for r in want
        ], method
    assert engine.data_graph is not old_graph
    assert paper in engine.data_graph and paper not in old_graph


def test_concurrent_first_callers_answer_like_sequential(monkeypatch):
    engine = KeywordSearchEngine(tiny_bibliographic_db())
    sequential = [
        engine.search(q, method="banks", use_cache=False)
        for q in ("john database", "widom xml")
    ]
    engine.invalidate_caches()
    build = engine_module.build_data_graph

    def slow_build(db):
        time.sleep(0.05)  # hold the build open so the other worker arrives
        return build(db)

    monkeypatch.setattr(engine_module, "build_data_graph", slow_build)
    batch = [None, None]

    def first_caller(i, text):
        batch[i] = engine.search(text, method="banks", use_cache=False)

    callers = [
        threading.Thread(target=first_caller, args=(i, text))
        for i, text in enumerate(("john database", "widom xml"))
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert [[(r.score, r.tuple_ids()) for r in rs] for rs in batch] == [
        [(r.score, r.tuple_ids()) for r in rs] for rs in sequential
    ]
