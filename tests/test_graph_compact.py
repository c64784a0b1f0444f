"""Generated differential test for the compact-graph search loops.

``graph_search`` and ``index.distance`` walk ``DataGraph.compact()``, an
integer-id view of the adjacency.  The ``TupleId``-keyed loops they
replaced live on in this file, verbatim, as the oracle: on generated
graphs (tied and non-unit weights, disconnected parts, hubs; groups with
duplicate matches and with ids the graph does not hold) all five
methods and ``bounded_bfs_distances`` must return equal answers —
tie-broken roots, edges and matches included — and report equal
``nodes_expanded`` / ``nodes_settled`` / ``masks``.

Weights are multiples of 0.25, so every path length is exact in floats
and "equally near" means the same to both implementations.
"""

from __future__ import annotations

import heapq
import math
import sys
import threading
import time
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from hypothesis import given, settings, strategies as st

from repro.core.engine import KeywordSearchEngine
from repro.datasets.bibliographic import tiny_bibliographic_db
from repro.graph import data_graph
from repro.graph.data_graph import DataGraph
from repro.graph_search import banks, ease, semantics, steiner
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
# The oracle: the TupleId-keyed implementations this PR replaced
# ----------------------------------------------------------------------
def bounded_bfs_distances(
    graph: DataGraph, sources: Iterable[TupleId], max_distance: float
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
    graph: DataGraph,
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
    graph: DataGraph,
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
    graph: DataGraph,
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
    sizes = [max(1, len(group)) for group in groups]

    def priority(dist: float, i: int, node: TupleId) -> float:
        activation = math.log(2 + sizes[i]) * math.log(2 + graph.degree(node))
        return dist * activation

    return _expand(graph, groups, k, priority=priority, budget=budget, span=span)


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
    graph: DataGraph,
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
    graph: DataGraph,
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
    graph: DataGraph,
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


@st.composite
def graphs_and_groups(draw):
    """A small graph plus 1-3 keyword groups over it.

    Edges are drawn with repeats (a later, lighter copy lowers the
    weight), a hub is wired to a drawn subset, and sparse edge lists
    leave disconnected parts.  Group members repeat and may name ids the
    graph does not hold.
    """
    n = draw(st.integers(1, 12))
    nodes = [TupleId(draw(st.sampled_from(TABLES)), i) for i in range(n)]
    draw(st.randoms(use_true_random=False)).shuffle(nodes)
    graph = DataGraph()
    for node in nodes:
        graph.add_node(node)
    positions = st.integers(0, n - 1)
    for u, v, w in draw(
        st.lists(st.tuples(positions, positions, st.sampled_from(WEIGHTS)), max_size=24)
    ):
        graph.add_edge(nodes[u], nodes[v], w)
    hub = nodes[draw(positions)]
    for spoke in draw(st.lists(positions, max_size=8)):
        graph.add_edge(hub, nodes[spoke], draw(st.sampled_from(WEIGHTS)))
    member = st.one_of(
        positions.map(nodes.__getitem__),
        st.integers(0, 2).map(lambda i: TupleId("zzz", i)),
    )
    groups = draw(st.lists(st.lists(member, min_size=1, max_size=5), min_size=1, max_size=3))
    return graph, groups


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
    graph, groups = case
    for group in groups:
        assert distance.bounded_bfs_distances(
            graph, group, max_distance
        ) == bounded_bfs_distances(graph, group, max_distance)


@settings(deadline=None)
@given(graphs_and_groups(), budgets)
def test_steiner_dp_matches_oracle(case, max_nodes):
    graph, groups = case
    old_budget, new_budget = budget_pair(max_nodes)
    old_span, new_span = Counters(), Counters()
    old = group_steiner_dp(graph, groups, budget=old_budget, span=old_span)
    new = steiner.group_steiner_dp(graph, groups, budget=new_budget, span=new_span)
    assert new == old
    assert new_span.counts == old_span.counts
    assert spent(new_budget) == spent(old_budget)


@settings(deadline=None)
@given(graphs_and_groups(), st.integers(1, 6), budgets, st.booleans())
def test_banks_matches_oracle(case, k, max_nodes, bidirectional):
    graph, groups = case
    old_algo = banks_bidirectional if bidirectional else banks_backward
    new_algo = banks.banks_bidirectional if bidirectional else banks.banks_backward
    old_budget, new_budget = budget_pair(max_nodes)
    old_span, new_span = Counters(), Counters()
    old = old_algo(graph, groups, k=k, budget=old_budget, span=old_span)
    new = new_algo(graph, groups, k=k, budget=new_budget, span=new_span)
    assert new.trees == old.trees
    assert new.nodes_expanded == old.nodes_expanded
    assert new_span.counts == old_span.counts
    assert spent(new_budget) == spent(old_budget)


@settings(deadline=None)
@given(graphs_and_groups(), st.integers(0, 3), st.one_of(st.none(), st.integers(1, 4)))
def test_ease_matches_oracle(case, r, k):
    graph, groups = case
    assert ease.r_radius_steiner_graphs(
        graph, groups, r=r, k=k
    ) == r_radius_steiner_graphs(graph, groups, r=r, k=k)


@settings(deadline=None)
@given(
    graphs_and_groups(),
    st.sampled_from((0.0, 0.75, 1.0, 2.5, 4.0)),
    st.one_of(st.none(), st.integers(1, 4)),
)
def test_distinct_root_matches_oracle(case, dmax, k):
    graph, groups = case
    assert semantics.distinct_root_results(
        graph, groups, dmax=dmax, k=k
    ) == distinct_root_results(graph, groups, dmax=dmax, k=k)


@settings(deadline=None)
@given(graphs_and_groups(), st.integers(1, 30))
def test_budgeted_partials_are_exact_answers(case, max_nodes):
    """EASE and distinct root charge their budget differently from the
    oracle (only enumerated centers; one search per group), so a cut-off
    run is checked against the full answer set instead."""
    graph, groups = case
    budget = QueryBudget(max_nodes=max_nodes)
    partial = semantics.distinct_root_results(graph, groups, dmax=4.0, budget=budget)
    full = semantics.distinct_root_results(graph, groups, dmax=4.0)
    assert set(partial) <= set(full)
    assert budget.exhausted or partial == full
    budget = QueryBudget(max_nodes=max_nodes)
    partial = ease.r_radius_steiner_graphs(graph, groups, r=2, budget=budget)
    full = r_radius_steiner_graphs(graph, groups, r=2)
    assert {a.nodes for a in partial} <= {a.nodes for a in full}
    assert budget.exhausted or partial == full


def test_slide30_graph_counters_match_oracle():
    """The slide-30 graph of test_graph_search.py, non-unit weights."""

    def n(i: int) -> TupleId:
        return TupleId("n", i)

    graph = DataGraph()
    for u, v, w in [(1, 2, 5), (1, 4, 6), (2, 3, 7), (2, 4, 10), (3, 4, 11),
                    (4, 5, 2), (4, 6, 3), (4, 7, 1), (5, 6, 1), (1, 5, 4)]:
        graph.add_edge(n(u), n(v), float(w))
    groups = [[n(1)], [n(3), n(6)], [n(7)]]
    old_span, new_span = Counters(), Counters()
    assert steiner.group_steiner_dp(
        graph, groups, span=new_span
    ) == group_steiner_dp(graph, groups, span=old_span)
    assert new_span.counts == old_span.counts
    for new_algo, old_algo in (
        (banks.banks_backward, banks_backward),
        (banks.banks_bidirectional, banks_bidirectional),
    ):
        new, old = new_algo(graph, groups, k=3), old_algo(graph, groups, k=3)
        assert (new.trees, new.nodes_expanded) == (old.trees, old.nodes_expanded)


def test_distinct_root_tie_goes_to_the_earlier_match():
    """Two matches 1.5 away over different weight splits: the search
    reaches the root from the later match first and must still relabel
    it with the earlier one, as the per-match oracle chooses."""
    early, late, x, y, root = (TupleId("t", i) for i in range(5))
    graph = DataGraph()
    for u, v, w in ((late, x, 0.5), (x, root, 1.0), (early, y, 1.0), (y, root, 0.5)):
        graph.add_edge(u, v, w)
    groups = [[early, late], [root]]
    answers = semantics.distinct_root_results(graph, groups, dmax=4.0)
    assert answers == distinct_root_results(graph, groups, dmax=4.0)
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
    answers = semantics.distinct_root_results(tiny_graph, groups, dmax=4.0)
    assert answers == distinct_root_results(tiny_graph, groups, dmax=4.0)
    assert answers and len(calls) == len(groups)


# ----------------------------------------------------------------------
# The compact view's lifetime
# ----------------------------------------------------------------------
def test_compact_is_memoised_and_sorted():
    graph = DataGraph()
    for table, rowid in (("b", 1), ("a", 2), ("b", 0), ("a", 10)):
        graph.add_node(TupleId(table, rowid))
    graph.add_edge(TupleId("b", 1), TupleId("a", 10), 2.0)
    view = graph.compact()
    assert graph.compact() is view
    assert view.ids == sorted(graph.nodes)
    assert [view.ids[i] for i in range(len(view.ids))] == [
        t for t, _ in sorted(view.index.items(), key=lambda kv: kv[1])
    ]
    u, v = view.index[TupleId("b", 1)], view.index[TupleId("a", 10)]
    assert (view.nbrs[u], view.wts[u]) == ([v], [2.0])
    assert (view.nbrs[v], view.wts[v]) == ([u], [2.0])


def test_compact_rebuilt_after_every_mutation():
    a, b, c = TupleId("t", 0), TupleId("t", 1), TupleId("t", 2)
    graph = DataGraph()
    graph.add_edge(a, b, 2.0)
    first = graph.compact()
    graph.add_node(c)
    second = graph.compact()
    assert second is not first and second.ids == [a, b, c]
    graph.add_edge(b, c, 1.0)
    third = graph.compact()
    assert third is not second and third.nbrs[2] == [1]
    # A lighter copy of an existing edge: no count changes, weight does.
    graph.add_edge(a, b, 0.5)
    assert (len(graph), graph.edge_count()) == (3, 2)
    fourth = graph.compact()
    assert fourth is not third and fourth.wts[0] == [0.5]
    assert distance.bounded_bfs_distances(graph, [a], 1.0) == {a: 0.0, b: 0.5}
    assert steiner.group_steiner_dp(graph, [[a], [c]]).weight == 1.5


def test_engine_answers_graph_query_right_after_insert():
    db = tiny_bibliographic_db()
    engine = KeywordSearchEngine(db)
    assert not engine.search("zebrafish widom", method="banks", use_cache=False)
    old_view = engine.data_graph.compact()
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
    assert engine.data_graph.compact() is not old_view
    assert paper in engine.data_graph.compact().index


def test_concurrent_first_callers_share_one_compact_view(monkeypatch):
    engine = KeywordSearchEngine(tiny_bibliographic_db())
    sequential = [
        engine.search(q, method="banks", use_cache=False)
        for q in ("john database", "widom xml")
    ]
    engine.invalidate_caches()
    builds = []
    build = data_graph.CompactGraph.__init__

    def slow_build(self, adj):
        builds.append(threading.get_ident())
        time.sleep(0.05)  # hold the build open so the other worker arrives
        build(self, adj)

    monkeypatch.setattr(data_graph.CompactGraph, "__init__", slow_build)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        batch = engine.search_many(
            [("john database", "banks"), ("widom xml", "banks")],
            max_workers=2,
            raise_on_error=True,
        )
    finally:
        sys.setswitchinterval(interval)
    assert len(builds) == 1
    assert [[(r.score, r.tuple_ids()) for r in rs] for rs in batch] == [
        [(r.score, r.tuple_ids()) for r in rs] for rs in sequential
    ]
