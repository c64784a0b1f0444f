"""Cross-validation and property-based tests on core invariants."""

import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.inex import (
    average_generalized_precision,
    char_precision_recall_f,
    generalized_precision_at_k,
    read_prefix_with_tolerance,
)
from repro.graph.data_graph import DataGraph
from repro.graph_search.steiner import group_steiner_dp
from repro.index.distance import bounded_bfs_distances, nearest_source_labels
from repro.index.hub import HubIndex
from repro.index.qgram import edit_distance
from repro.relational.database import TupleId


INF = float("inf")


def N(i):
    return TupleId("t", i)


def random_graph(rng, n_nodes, n_edges, max_weight=5):
    edges = []
    for _ in range(n_edges):
        u, v = rng.randrange(n_nodes), rng.randrange(n_nodes)
        if u != v:
            edges.append((N(u), N(v), rng.randint(1, max_weight)))
    return DataGraph({N(i): 0.0 for i in range(n_nodes)}, edges)


class TestDijkstraAgainstNetworkx:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_distances_match(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, 12, 20)
        nxg = g.to_networkx()
        source = N(0)
        labels = nearest_source_labels(g, [(g.index[source], 0)], INF)
        ours = {g.ids[node]: d for node, (d, _) in labels.items()}
        theirs = nx.single_source_dijkstra_path_length(nxg, source, weight="weight")
        assert set(ours) == set(theirs)
        for node, dist in ours.items():
            assert dist == pytest.approx(theirs[node])


class TestSteinerAgainstBruteForce:
    def _brute_force(self, g, groups):
        """Optimal group Steiner weight: min over node subsets that are
        connected and touch every group, of the subset's MST weight."""
        nodes = g.nodes
        nxg = g.to_networkx()
        best = float("inf")
        for r in range(1, len(nodes) + 1):
            for subset in itertools.combinations(nodes, r):
                ss = set(subset)
                if not all(ss & set(group) for group in groups):
                    continue
                sub = nxg.subgraph(ss)
                if not nx.is_connected(sub):
                    continue
                mst_weight = sum(
                    d["weight"] for *_ , d in nx.minimum_spanning_tree(
                        sub, weight="weight"
                    ).edges(data=True)
                )
                best = min(best, mst_weight)
        return best

    @pytest.mark.parametrize("seed", [11, 13, 17, 19])
    def test_dp_is_optimal(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, 7, 12)
        nodes = g.nodes
        groups = [
            [nodes[rng.randrange(len(nodes))]],
            [nodes[rng.randrange(len(nodes))], nodes[rng.randrange(len(nodes))]],
        ]
        tree = group_steiner_dp(g, groups)
        brute = self._brute_force(g, groups)
        if tree is None:
            assert brute == float("inf")
        else:
            assert tree.weight == pytest.approx(brute)


class TestHubIndexAgainstDijkstra:
    @pytest.mark.parametrize("seed", [3, 5, 7])
    def test_all_pairs_exact(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, 10, 15)
        hub = HubIndex(g, hub_count=3)
        for u in g.nodes:
            exact = bounded_bfs_distances(g, [u], INF)
            for v in g.nodes:
                expected = exact.get(v, float("inf"))
                assert hub.distance(u, v) == pytest.approx(expected)


class TestEditDistanceProperties:
    @given(
        st.text(alphabet="abc", max_size=8),
        st.text(alphabet="abc", max_size=8),
    )
    @settings(max_examples=100)
    def test_symmetry(self, a, b):
        assert edit_distance(a, b) == edit_distance(b, a)

    @given(
        st.text(alphabet="ab", max_size=6),
        st.text(alphabet="ab", max_size=6),
        st.text(alphabet="ab", max_size=6),
    )
    @settings(max_examples=100)
    def test_triangle_inequality(self, a, b, c):
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)

    @given(st.text(alphabet="abc", max_size=8))
    @settings(max_examples=50)
    def test_identity(self, a):
        assert edit_distance(a, a) == 0


class TestInexProperties:
    intervals = st.lists(
        st.tuples(st.integers(0, 50), st.integers(0, 30)).map(
            lambda t: (t[0], t[0] + t[1])
        ),
        max_size=4,
    )

    @given(intervals, st.integers(0, 60), st.integers(1, 60))
    @settings(max_examples=100)
    def test_prf_bounds(self, relevant, start, length):
        read = read_prefix_with_tolerance(
            (start, start + length), relevant, tolerance=5
        )
        p, r, f = char_precision_recall_f(read, relevant)
        assert 0.0 <= p <= 1.0
        assert 0.0 <= r <= 1.0
        assert 0.0 <= f <= 1.0
        assert f <= max(p, r) + 1e-9

    @given(intervals, st.integers(0, 40), st.integers(1, 40))
    @settings(max_examples=100)
    def test_tolerance_monotone_in_chars_read(self, relevant, start, length):
        result = (start, start + length)
        small = read_prefix_with_tolerance(result, relevant, tolerance=2)
        large = read_prefix_with_tolerance(result, relevant, tolerance=10)
        assert small <= large  # subset: more patience, more read

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=10))
    @settings(max_examples=100)
    def test_agp_bounded_by_max_score(self, scores):
        agp = average_generalized_precision(scores)
        assert 0.0 <= agp <= max(scores) + 1e-9

    @given(st.lists(st.floats(0, 1), min_size=2, max_size=10))
    @settings(max_examples=100)
    def test_gp_prefix_of_sorted_scores_monotone(self, scores):
        ordered = sorted(scores, reverse=True)
        gps = [
            generalized_precision_at_k(ordered, k)
            for k in range(1, len(ordered) + 1)
        ]
        assert all(gps[i] >= gps[i + 1] - 1e-9 for i in range(len(gps) - 1))


class TestDifferentiationProperties:
    @given(
        st.lists(
            st.lists(
                st.tuples(st.sampled_from(["t1", "t2"]), st.text("abc", min_size=1, max_size=2)),
                min_size=1,
                max_size=6,
            ),
            min_size=2,
            max_size=4,
        ),
        st.integers(1, 3),
    )
    @settings(max_examples=50, deadline=None)
    def test_greedy_never_below_top_frequency(self, raw_sets, budget):
        from repro.analysis.differentiation import (
            FeatureSet,
            degree_of_difference,
            select_features_greedy,
            select_features_top_frequency,
        )

        sets_a = [FeatureSet.of(i, fs) for i, fs in enumerate(raw_sets)]
        sets_b = [FeatureSet.of(i, fs) for i, fs in enumerate(raw_sets)]
        select_features_top_frequency(sets_a, budget)
        select_features_greedy(sets_b, budget)
        dod_a = degree_of_difference([s.selected for s in sets_a])
        dod_b = degree_of_difference([s.selected for s in sets_b])
        assert dod_b >= dod_a

    @given(st.integers(0, 100))
    @settings(max_examples=20)
    def test_dod_zero_for_identical_selections(self, seed):
        from repro.analysis.differentiation import degree_of_difference

        selection = {("t", "a"), ("t", "b")}
        assert degree_of_difference([set(selection), set(selection)]) == 0


class TestAggregationProperties:
    def test_every_cell_covers_and_is_minimal(self, events_db):
        from repro.analysis.aggregation import cell_members, minimal_group_bys
        from repro.index.text import tokenize

        rows = list(events_db.rows("events"))
        keywords = ["pool", "motorcycle"]
        cells = minimal_group_bys(rows, ["month", "state"], keywords)
        for cell in cells:
            members = cell_members(rows, cell)
            covered = set()
            for row in members:
                covered |= set(tokenize(row.text()))
            assert set(keywords) <= covered
        for a in cells:
            for b in cells:
                if a != b:
                    assert not a.specialises(b)
