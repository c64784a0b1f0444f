"""Tests for graph substrate and the distance/forward/hub/reachability indexes."""

import networkx as nx
import pytest

from repro.graph.data_graph import DataGraph, build_data_graph
from repro.graph.weights import BanksWeighting
from repro.index.distance import (
    KeywordDistanceIndex,
    bounded_bfs_distances,
    nearest_source_labels,
    within_hops,
)
from repro.index.forward import DeltaForwardIndex
from repro.index.hub import HubIndex
from repro.index.reachability import DReachabilityIndex
from repro.index.trie import Trie
from repro.relational.database import TupleId
from repro.resilience.budget import QueryBudget


INF = float("inf")


def N(i):
    return TupleId("t", i)


def path_graph(n, weight=1.0):
    return DataGraph({}, [(N(i), N(i + 1), weight) for i in range(n - 1)])


class TestDataGraph:
    def test_build_from_db(self, tiny_db, tiny_graph):
        assert len(tiny_graph) == tiny_db.size()
        # write table rows each connect author and paper
        w0 = tiny_graph.index[TupleId("write", 0)]
        nbr_tables = {tiny_graph.ids[n].table for n in tiny_graph.nbrs[w0]}
        assert nbr_tables == {"author", "paper"}

    def test_edges_match_fk_count(self, tiny_db, tiny_graph):
        expected = 0
        for table in tiny_db.tables.values():
            for fk in table.schema.foreign_keys:
                for row in table.rows():
                    if row[fk.column] is not None:
                        expected += 1
        assert tiny_graph.edge_count() == expected
        assert len(list(tiny_graph.edges())) == expected

    def test_dijkstra_on_path(self):
        g = path_graph(5, weight=2.0)
        dist = bounded_bfs_distances(g, [N(0)], INF)
        assert dist[N(4)] == 8.0

    def test_dijkstra_early_stop(self):
        # An exhausted budget ends the search; what it settled is exact.
        g = path_graph(10)
        budget = QueryBudget(max_nodes=3)
        labels = nearest_source_labels(g, [(g.index[N(0)], 0)], INF, budget)
        assert budget.exhausted
        assert {g.ids[n]: d for n, (d, _) in labels.items()} == {
            N(0): 0.0, N(1): 1.0, N(2): 2.0,
        }

    def test_dijkstra_early_stop_settles_minimum(self):
        # Two seeds at the path's ends: a two-node budget settles both
        # seeds (distance 0) and none of the path between them.
        g = path_graph(10)
        seeds = [(g.index[N(0)], 0), (g.index[N(9)], 1)]
        labels = nearest_source_labels(g, seeds, INF, QueryBudget(max_nodes=2))
        assert {g.ids[n]: label for n, label in labels.items()} == {
            N(0): (0.0, 0), N(9): (0.0, 1),
        }

    def test_dijkstra_max_distance(self):
        g = path_graph(10)
        dist = bounded_bfs_distances(g, [N(0)], 3)
        assert N(3) in dist and N(4) not in dist

    def test_bfs_hops(self):
        g = path_graph(6)
        hops = within_hops(g, (g.index[N(0)],), 2)
        assert {g.ids[n]: h for n, h in hops.items()} == {N(0): 0, N(1): 1, N(2): 2}

    def test_subgraph(self):
        g = path_graph(5)
        sub = g.subgraph([N(0), N(1), N(3)])
        assert len(sub) == 3
        assert sub.edge_weight(N(0), N(1)) == 1.0
        assert sub.edge_weight(N(1), N(3)) is None

    def test_parallel_edge_keeps_min_weight(self):
        g = DataGraph({}, [(N(0), N(1), 5.0), (N(1), N(0), 2.0), (N(0), N(1), 3.0)])
        assert g.edge_weight(N(0), N(1)) == g.edge_weight(N(1), N(0)) == 2.0
        assert g.edge_count() == 1

    def test_self_loop_ignored(self):
        n = TupleId("t", 0)
        g = DataGraph({}, [(n, n, 1.0)])
        assert len(g) == 0
        assert g.edge_count() == 0

    def test_empty_graph(self):
        g = DataGraph({})
        assert len(g) == 0
        assert g.edge_count() == 0
        # An unknown source seeds nothing.
        assert bounded_bfs_distances(g, [TupleId("t", 0)], INF) == {}

    def test_node_weight_default(self):
        n = TupleId("t", 0)
        g = DataGraph({n: 2.5}, [(n, TupleId("t", 1), 1.0)])
        assert g.node_weight(n) == 2.5
        assert g.node_weight(TupleId("t", 1)) == 0.0
        assert g.node_weight(TupleId("t", 9)) == 0.0

    def test_banks_weights(self, tiny_db):
        weighting = BanksWeighting()
        graph = build_data_graph(
            tiny_db,
            edge_weight=weighting.edge_weight,
            node_weight=weighting.node_prestige,
        )
        # Papers are referenced by writes/cites: positive prestige.
        assert graph.node_weight(TupleId("paper", 0)) > 0
        # All edges at least weight 1.
        assert all(w >= 1.0 for _, _, w in graph.edges())


class TestKeywordDistanceIndex:
    def test_distances_from_matches(self, tiny_graph, tiny_index):
        kdi = KeywordDistanceIndex(tiny_graph, tiny_index, max_distance=4)
        dists = kdi.distances("widom")
        source = tiny_index.matching_tuples("widom")[0]
        assert dists[source] == 0.0
        assert all(d <= 4 for d in dists.values())

    def test_candidate_roots_reach_all(self, tiny_graph, tiny_index):
        kdi = KeywordDistanceIndex(tiny_graph, tiny_index, max_distance=6)
        roots = kdi.candidate_roots(["widom", "xml"])
        assert roots
        for root, cost in roots.items():
            assert cost == pytest.approx(
                kdi.distance(root, "widom") + kdi.distance(root, "xml")
            )

    def test_sorted_list_ascending(self, tiny_graph, tiny_index):
        kdi = KeywordDistanceIndex(tiny_graph, tiny_index)
        lst = kdi.sorted_list("xml")
        dists = [d for d, _ in lst]
        assert dists == sorted(dists)

    def test_bounded_bfs_multi_source(self):
        g = path_graph(7)
        dist = bounded_bfs_distances(g, [N(0), N(6)], max_distance=2)
        assert dist[N(2)] == 2.0
        assert dist[N(4)] == 2.0
        assert N(3) not in dist


class TestDeltaForward:
    def test_forward_reaches_neighbors(self, tiny_graph, tiny_index):
        trie = Trie(tiny_index.vocabulary)
        fwd = DeltaForwardIndex(tiny_graph, tiny_index, trie, delta=1)
        # A write tuple has no text but reaches author/paper tokens in 1 hop.
        w0 = TupleId("write", 0)
        tokens = {trie.token(i) for i in fwd.tokens_within_delta(w0)}
        assert tokens  # at least the author name and paper title terms

    def test_reaches_range(self, tiny_graph, tiny_index):
        trie = Trie(tiny_index.vocabulary)
        fwd = DeltaForwardIndex(tiny_graph, tiny_index, trie, delta=2)
        rng = trie.prefix_range("xml")
        paper0 = TupleId("paper", 0)
        assert fwd.reaches_range(paper0, *rng)
        assert not fwd.reaches_range(paper0, len(trie) + 5, len(trie) + 9)

    def test_filter_candidates(self, tiny_graph, tiny_index):
        trie = Trie(tiny_index.vocabulary)
        fwd = DeltaForwardIndex(tiny_graph, tiny_index, trie, delta=2)
        rng_widom = trie.prefix_range("widom")
        candidates = list(tiny_graph.nodes)
        kept = fwd.filter_candidates(candidates, [rng_widom])
        assert kept
        assert len(kept) < len(candidates)

    @pytest.mark.parametrize("delta", [1, 2, 3])
    def test_forward_is_the_hop_ball(self, biblio_graph, biblio_index, delta):
        """Every node's forward set is exactly the tokens on tuples
        within δ hops (networkx BFS), whatever order nodes are visited."""
        trie = Trie(biblio_index.vocabulary)
        fwd = DeltaForwardIndex(biblio_graph, biblio_index, trie, delta=delta)
        nxg = biblio_graph.to_networkx()
        for node in biblio_graph.nodes[::7]:
            ball = nx.single_source_shortest_path_length(nxg, node, cutoff=delta)
            want = {
                trie.token_id(t)
                for other in ball
                for t in biblio_index.tokens_of(other)
                if t in trie
            }
            assert fwd.tokens_within_delta(node) == sorted(want), node

    def test_delta_zero_is_local_tokens(self, tiny_graph, tiny_index):
        trie = Trie(tiny_index.vocabulary)
        fwd = DeltaForwardIndex(tiny_graph, tiny_index, trie, delta=0)
        paper0 = TupleId("paper", 0)
        tokens = {trie.token(i) for i in fwd.tokens_within_delta(paper0)}
        assert tokens == {
            t for t in tiny_index.tokens_of(paper0) if t in trie
        }


class TestHubIndex:
    def test_exact_distances_on_path(self):
        g = path_graph(8)
        hub = HubIndex(g, hub_count=2)
        for i in range(8):
            for j in range(8):
                assert hub.distance(N(i), N(j)) == pytest.approx(abs(i - j))

    def test_exact_on_database_graph(self, tiny_graph):
        hub = HubIndex(tiny_graph, hub_count=4)
        nodes = tiny_graph.nodes[:8]
        for u in nodes:
            exact = bounded_bfs_distances(tiny_graph, [u], INF)
            for v in nodes:
                expected = exact.get(v, float("inf"))
                assert hub.distance(u, v) == pytest.approx(expected)

    def test_hub_selection_by_degree(self, tiny_graph):
        hub = HubIndex(tiny_graph, hub_count=3)
        degrees = sorted((tiny_graph.degree(n) for n in tiny_graph.nodes), reverse=True)
        for h in hub.hubs:
            assert tiny_graph.degree(h) >= degrees[min(5, len(degrees) - 1)]

    def test_index_smaller_than_all_pairs(self, biblio_graph):
        n = len(biblio_graph)
        hub = HubIndex(biblio_graph, hub_count=4 * int(n ** 0.5))
        # The hub decomposition must undercut the O(n^2) all-pairs table
        # it replaces (Goldman et al.'s space argument, slide 122).
        assert hub.index_entries() < n * n / 2


class TestDReachability:
    def test_n2n_matches_bfs(self, tiny_graph, tiny_index):
        idx = DReachabilityIndex(tiny_graph, tiny_index, d=2)
        node = TupleId("author", 0)
        nxg = tiny_graph.to_networkx()
        assert idx.nodes_within(node) == set(
            nx.single_source_shortest_path_length(nxg, node, cutoff=2)
        )

    def test_term_reachability(self, tiny_graph, tiny_index):
        idx = DReachabilityIndex(tiny_graph, tiny_index, d=2)
        # author 1 (widom) writes paper 3 ("xml query optimization"):
        # "xml" reachable within 2 hops (author -> write -> paper).
        assert idx.can_reach_term(TupleId("author", 1), "xml")
        assert not idx.can_reach_term(TupleId("author", 1), "zzz")

    def test_prune_candidates(self, tiny_graph, tiny_index):
        idx = DReachabilityIndex(tiny_graph, tiny_index, d=2)
        candidates = list(tiny_graph.nodes)
        kept = idx.prune_candidates(candidates, ["widom", "xml"])
        assert kept
        assert len(kept) < len(candidates)
        for node in kept:
            assert idx.can_reach_all(node, ["widom", "xml"])

    def test_relation_term_reachable(self, tiny_graph, tiny_index):
        idx = DReachabilityIndex(tiny_graph, tiny_index, d=2)
        assert idx.relation_term_reachable("author", "widom", "paper")

    def test_d_zero(self, tiny_graph, tiny_index):
        idx = DReachabilityIndex(tiny_graph, tiny_index, d=0)
        node = TupleId("paper", 0)
        assert idx.nodes_within(node) == {node}
        assert idx.can_reach_term(node, "xml")
