"""Unit tests for the PreferenceSystem problem model."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.preferences import PreferenceSystem
from repro.utils.validation import InvalidInstanceError

from repro.testing.strategies import preference_systems, random_ps


class TestConstruction:
    def test_basic(self, small_ps):
        assert small_ps.n == 5
        assert small_ps.m == 6
        assert small_ps.edges() == ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4))

    def test_sequence_rankings(self):
        ps = PreferenceSystem([[1], [0]], 1)
        assert ps.n == 2 and ps.m == 1

    def test_rank_lookup(self, small_ps):
        assert small_ps.rank(1, 0) == 0
        assert small_ps.rank(1, 3) == 1
        assert small_ps.rank(1, 2) == 2
        with pytest.raises(KeyError):
            small_ps.rank(0, 4)

    def test_quota_clamped_to_list_length(self):
        ps = PreferenceSystem({0: [1], 1: [0]}, 5)
        assert ps.quota(0) == 1

    def test_isolated_node_quota_zero(self):
        ps = PreferenceSystem({0: [1], 1: [0], 2: []}, 2)
        assert ps.quota(2) == 0
        assert ps.degree(2) == 0

    def test_uniform_mapping_and_sequence_quotas(self):
        r = {0: [1], 1: [0]}
        assert PreferenceSystem(r, 1).quotas == (1, 1)
        assert PreferenceSystem(r, [1, 1]).quotas == (1, 1)
        assert PreferenceSystem(r, {0: 1, 1: 1}).quotas == (1, 1)

    def test_from_scores(self):
        adj = {0: [1, 2], 1: [0, 2], 2: [0, 1]}
        ps = PreferenceSystem.from_scores(adj, lambda i, j: -abs(i - j), 1)
        # node 0 prefers 1 (closer) over 2
        assert ps.preference_list(0) == (1, 2)
        assert ps.preference_list(2) == (1, 0)

    def test_top(self, small_ps):
        assert small_ps.top(3, 2) == (1, 2)


class TestValidation:
    def test_rejects_empty(self):
        with pytest.raises(InvalidInstanceError):
            PreferenceSystem({}, 1)

    def test_rejects_non_consecutive_nodes(self):
        with pytest.raises(InvalidInstanceError):
            PreferenceSystem({0: [5], 5: [0]}, 1)

    def test_rejects_self_ranking(self):
        with pytest.raises(InvalidInstanceError, match="ranks itself"):
            PreferenceSystem({0: [0, 1], 1: [0]}, 1)

    def test_rejects_duplicate_ranking(self):
        with pytest.raises(InvalidInstanceError, match="twice"):
            PreferenceSystem({0: [1, 1], 1: [0]}, 1)

    def test_rejects_asymmetric_adjacency(self):
        with pytest.raises(InvalidInstanceError, match="asymmetric"):
            PreferenceSystem({0: [1], 1: []}, 1)

    def test_rejects_unknown_node(self):
        with pytest.raises(InvalidInstanceError, match="unknown"):
            PreferenceSystem({0: [7], 1: [0]}, 1)

    def test_rejects_zero_quota_for_connected_node(self):
        with pytest.raises(InvalidInstanceError, match=">= 1"):
            PreferenceSystem({0: [1], 1: [0]}, {0: 0, 1: 1})

    def test_rejects_missing_quota(self):
        with pytest.raises(InvalidInstanceError, match="missing"):
            PreferenceSystem({0: [1], 1: [0]}, {0: 1})

    def test_rejects_bool_quota(self):
        with pytest.raises(InvalidInstanceError):
            PreferenceSystem({0: [1], 1: [0]}, True)

    @pytest.mark.parametrize(
        "rankings, node",
        [
            ({0: [1.7], 1: [0]}, 0),
            ({0: [True], 1: [0]}, 0),
            ({0: [np.float64(1.2)], 1: [0]}, 0),
            ({0: [1], 1: [0.0]}, 1),
            ([[1, 2], [0], [np.bool_(False)]], 2),
            ([np.array([1.0]), np.array([0.0])], 0),
            ([np.array([1]), np.array([False])], 1),
            ([[1], "0"], 1),
        ],
    )
    def test_rejects_non_integer_entries(self, rankings, node):
        with pytest.raises(InvalidInstanceError, match=f"node {node} ranks non-integer"):
            PreferenceSystem(rankings, 1)

    @pytest.mark.parametrize(
        "rankings",
        [
            {0: [np.int64(1)], 1: [np.int32(0)]},
            [np.array([1], dtype=np.uint8), np.array([0], dtype=np.int16)],
            [np.array([1, 2]), [0], (np.int64(0),)],
            [[1], [0], np.array([])],
            [np.array([1]), np.array([0]), np.array([])],
        ],
    )
    def test_accepts_numpy_integers(self, rankings):
        ps = PreferenceSystem(rankings, 1)
        lists = [[int(j) for j in r] for r in (
            rankings.values() if isinstance(rankings, dict) else rankings
        )]
        assert [list(ps.neighbors(i)) for i in ps.nodes()] == lists
        assert all(type(j) is int for i in ps.nodes() for j in ps.neighbors(i))


class TestAccessors:
    def test_b_max(self, small_ps):
        assert small_ps.b_max == 2

    def test_b_max_all_isolated(self):
        ps = PreferenceSystem({0: [], 1: []}, 1)
        assert ps.b_max == 1  # convention: bounds use b_max >= 1

    def test_has_edge_symmetry(self, small_ps):
        for i, j in small_ps.edges():
            assert small_ps.has_edge(i, j) and small_ps.has_edge(j, i)
        assert not small_ps.has_edge(0, 4)

    def test_len_iter(self, small_ps):
        assert len(small_ps) == 5
        assert list(small_ps) == [0, 1, 2, 3, 4]

    def test_equality_and_hash(self, small_ps):
        twin = PreferenceSystem(
            {0: [1, 2], 1: [0, 3, 2], 2: [3, 0, 1], 3: [1, 2, 4], 4: [3]},
            {0: 1, 1: 2, 2: 2, 3: 2, 4: 1},
        )
        assert twin == small_ps
        assert hash(twin) == hash(small_ps)
        other = PreferenceSystem({0: [1], 1: [0]}, 1)
        assert other != small_ps

    def test_repr(self, small_ps):
        assert "n=5" in repr(small_ps)


class TestAcyclicity:
    def test_triangle_rotation_is_cyclic(self, triangle_ps):
        assert not triangle_ps.is_acyclic()

    def test_globally_ranked_is_acyclic(self):
        # all nodes rank by a common global order -> acyclic
        ps = PreferenceSystem.from_scores(
            {0: [1, 2, 3], 1: [0, 2, 3], 2: [0, 1, 3], 3: [0, 1, 2]},
            lambda i, j: -j,  # everyone prefers lower ids
            2,
        )
        assert ps.is_acyclic()

    def test_path_graph_is_acyclic(self):
        ps = PreferenceSystem({0: [1], 1: [0, 2], 2: [1, 3], 3: [2]}, 1)
        assert ps.is_acyclic()

    @settings(max_examples=30, deadline=None)
    @given(preference_systems(max_n=6))
    def test_matches_networkx_oracle(self, ps):
        import networkx as nx

        arcs = ps.preference_cycles_digraph()
        G = nx.DiGraph()
        G.add_nodes_from(arcs)
        for v, outs in arcs.items():
            for w in outs:
                G.add_edge(v, w)
        assert ps.is_acyclic() == nx.is_directed_acyclic_graph(G)

    def test_weight_derived_preferences_acyclic(self):
        # ranking everyone by symmetric scores s(i,j)=s(j,i) cannot cycle
        import itertools

        scores = {}
        for i, j in itertools.combinations(range(6), 2):
            scores[(i, j)] = (i * 7 + j * 13) % 17 + (i + j) / 100.0
        ps = PreferenceSystem.from_scores(
            {i: [j for j in range(6) if j != i] for i in range(6)},
            lambda i, j: scores[(min(i, j), max(i, j))],
            2,
        )
        assert ps.is_acyclic()


class TestRandomHelper:
    def test_random_ps_valid(self):
        for seed in range(5):
            ps = random_ps(12, 0.4, 2, seed)
            assert ps.n == 12
            for i in ps.nodes():
                assert ps.quota(i) <= max(ps.degree(i), 1) or ps.degree(i) == 0
