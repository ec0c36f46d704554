"""Unit tests for the Matching container."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matching import Matching
from repro.core.weights import satisfaction_weights
from repro.testing.strategies import preference_systems
from repro.utils.validation import InvalidMatchingError


class TestMutation:
    def test_add_remove(self):
        m = Matching(4)
        m.add(0, 1)
        m.add(2, 3)
        assert m.size() == 2
        m.remove(1, 0)
        assert m.size() == 1
        assert not m.has_edge(0, 1)

    def test_add_duplicate_raises(self):
        m = Matching(3)
        m.add(0, 1)
        with pytest.raises(InvalidMatchingError, match="already"):
            m.add(1, 0)

    def test_self_loop_raises(self):
        with pytest.raises(InvalidMatchingError, match="self-loop"):
            Matching(3).add(1, 1)

    def test_out_of_range_raises(self):
        with pytest.raises(InvalidMatchingError, match="outside"):
            Matching(3).add(0, 3)

    def test_remove_absent_raises(self):
        with pytest.raises(InvalidMatchingError, match="not in matching"):
            Matching(3).remove(0, 1)

    def test_discard(self):
        m = Matching(3, [(0, 1)])
        assert m.discard(0, 1) is True
        assert m.discard(0, 1) is False

    def test_invalid_n(self):
        with pytest.raises(InvalidMatchingError):
            Matching(0)


class TestQueries:
    def test_edges_canonical_sorted(self):
        m = Matching(5, [(3, 1), (0, 4), (2, 0)])
        assert m.edges() == [(0, 2), (0, 4), (1, 3)]
        assert m.edge_set() == frozenset({(0, 2), (0, 4), (1, 3)})

    def test_connections_and_degree(self):
        m = Matching(4, [(0, 1), (0, 2)])
        assert m.connections(0) == frozenset({1, 2})
        assert m.degree(0) == 2 and m.degree(3) == 0

    def test_copy_independent(self):
        m = Matching(3, [(0, 1)])
        c = m.copy()
        c.add(1, 2)
        assert m.size() == 1 and c.size() == 2

    def test_dunder(self):
        m = Matching(3, [(0, 1)])
        assert (0, 1) in m and (1, 2) not in m
        assert len(m) == 1
        assert list(m) == [(0, 1)]
        assert m == Matching(3, [(1, 0)])
        assert m != Matching(3)
        assert hash(m) == hash(Matching(3, [(0, 1)]))
        assert "size=1" in repr(m)

    def test_connection_list_ordered_by_preference(self, small_ps):
        m = Matching(5, [(3, 4), (3, 1)])
        assert m.connection_list(small_ps, 3) == [1, 4]


class TestValidation:
    def test_validate_ok(self, small_ps):
        m = Matching(5, [(0, 1), (2, 3)])
        m.validate(small_ps)
        assert m.is_feasible(small_ps)

    def test_validate_quota_violation(self, small_ps):
        m = Matching(5, [(0, 1), (0, 2)])  # b_0 = 1
        with pytest.raises(InvalidMatchingError, match="quota"):
            m.validate(small_ps)

    def test_validate_phantom_edge(self, small_ps):
        m = Matching(5, [(0, 4)])  # not a potential connection
        with pytest.raises(InvalidMatchingError, match="not a potential"):
            m.validate(small_ps)

    def test_validate_wrong_n(self, small_ps):
        with pytest.raises(InvalidMatchingError, match="instance has"):
            Matching(4).validate(small_ps)

    @settings(max_examples=100, deadline=None)
    @given(preference_systems(max_n=7), st.data())
    def test_validate_names_the_first_offender(self, ps, data):
        """Same verdict and message as the node-by-node scan it replaced."""
        pairs = [(i, j) for i in ps.nodes() for j in ps.nodes() if i < j]
        if not pairs:
            return
        m = Matching(ps.n, data.draw(st.lists(st.sampled_from(pairs), unique=True)))

        def scan():
            for i in range(ps.n):
                if m.degree(i) > ps.quota(i):
                    return f"node {i} has {m.degree(i)} connections, quota {ps.quota(i)}"
                for j in m._conn[i]:
                    if not ps.has_edge(i, j):
                        return f"matched edge ({i},{j}) is not a potential connection"
            return None

        try:
            m.validate(ps)
            got = None
        except InvalidMatchingError as exc:
            got = str(exc)
        assert got == scan()

    def test_residual_quota(self, small_ps):
        m = Matching(5, [(1, 3)])
        assert m.residual_quota(small_ps, 1) == 1
        assert m.residual_quota(small_ps, 3) == 1
        assert m.residual_quota(small_ps, 0) == 1

    def test_is_maximal(self, small_ps):
        assert not Matching(5).is_maximal(small_ps)
        m = Matching(5, [(0, 1), (1, 3), (2, 3), (0, 2)])
        # 3 has residual quota 0? b_3=2, used (1,3),(2,3) -> full; 4's only
        # neighbour 3 is saturated -> maximal
        assert m.is_maximal(small_ps)


class TestAccounting:
    def test_total_weight(self, small_ps):
        wt = satisfaction_weights(small_ps)
        m = Matching(5, [(0, 1), (2, 3)])
        assert m.total_weight(wt) == pytest.approx(
            wt.weight(0, 1) + wt.weight(2, 3)
        )

    def test_satisfaction_vector_shape(self, small_ps):
        m = Matching(5, [(0, 1)])
        v = m.satisfaction_vector(small_ps)
        assert v.shape == (5,)
        assert v[0] > 0 and v[4] == 0.0

    def test_total_satisfaction_kinds(self, small_ps):
        m = Matching(5, [(0, 1), (2, 3), (3, 4)])
        full = m.total_satisfaction(small_ps, "full")
        static = m.total_satisfaction(small_ps, "static")
        assert full >= static  # dynamic term is non-negative
