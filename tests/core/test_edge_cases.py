"""Edge-case coverage: special graph shapes and extreme parameters.

These instances have hand-computable outcomes, so they pin the exact
behaviour of the pipeline where random instances only pin invariants.
"""

import numpy as np
import pytest

from repro.core import (
    PreferenceSystem,
    greedy_certificate,
    lic_matching,
    run_lid,
    solve_lid,
)
from repro.core.fast import FastInstance
from repro.core.fast_lid import lid_matching_fast
from repro.core.resilient_lid import run_resilient_lid
from repro.core.sharded_lid import sharded_lid_matching
from repro.core.weights import WeightTable


def star(n_leaves: int, quota_center: int) -> PreferenceSystem:
    """Centre 0 with ranked leaves 1..n; every leaf only knows 0."""
    rankings = {0: list(range(1, n_leaves + 1))}
    for leaf in range(1, n_leaves + 1):
        rankings[leaf] = [0]
    quotas = {0: quota_center, **{leaf: 1 for leaf in range(1, n_leaves + 1)}}
    return PreferenceSystem(rankings, quotas)


class TestStars:
    def test_center_takes_top_quota_leaves(self):
        ps = star(6, quota_center=2)
        result, wt = solve_lid(ps)
        # eq. 9: leaf side contributes 1/1 for every leaf (only choice);
        # centre side decreases with rank, so top-2 ranked leaves win
        assert result.matching.connections(0) == frozenset({1, 2})

    def test_all_leaves_when_quota_suffices(self):
        ps = star(4, quota_center=4)
        result, _ = solve_lid(ps)
        assert result.matching.degree(0) == 4

    def test_unmatched_leaves_get_rejected_not_stuck(self):
        ps = star(8, quota_center=3)
        result, _ = solve_lid(ps)
        for leaf in range(4, 9):
            node = result.nodes[leaf]
            assert node.finished and not node.locked


class TestCompleteGraphs:
    def test_complete_quota1_is_weighted_greedy_pairing(self):
        # K4 with distinct weights: greedy pairs (heaviest), then the rest
        wt = WeightTable(
            {(0, 1): 10.0, (0, 2): 1.0, (0, 3): 2.0,
             (1, 2): 3.0, (1, 3): 4.0, (2, 3): 5.0},
            4,
        )
        m = lic_matching(wt, [1] * 4)
        assert m.edge_set() == {(0, 1), (2, 3)}
        assert run_lid(wt, [1] * 4).matching.edge_set() == m.edge_set()

    def test_complete_quota_n_minus_1_takes_everything(self):
        rankings = {i: [j for j in range(5) if j != i] for i in range(5)}
        ps = PreferenceSystem(rankings, 4)
        result, _ = solve_lid(ps)
        assert result.matching.size() == 10  # all of K5
        assert result.matching.total_satisfaction(ps) == pytest.approx(5.0)


class TestDegenerateShapes:
    def test_two_isolated_components(self):
        ps = PreferenceSystem({0: [1], 1: [0], 2: [3], 3: [2]}, 1)
        result, wt = solve_lid(ps)
        assert result.matching.edge_set() == {(0, 1), (2, 3)}
        # components do not exchange messages
        assert result.metrics.sent_by_kind["PROP"] == 4

    def test_single_edge_heterogeneous_quotas(self):
        ps = PreferenceSystem({0: [1], 1: [0]}, {0: 1, 1: 1})
        result, _ = solve_lid(ps)
        assert result.matching.total_satisfaction(ps) == pytest.approx(2.0)

    def test_path_alternation(self):
        # P6 with weights increasing towards the middle: greedy picks the
        # two local maxima, leaving the global alternating optimum behind
        wt = WeightTable(
            {(0, 1): 1.0, (1, 2): 2.0, (2, 3): 3.0, (3, 4): 2.0, (4, 5): 1.0},
            6,
        )
        m = lic_matching(wt, [1] * 6)
        assert m.edge_set() == {(2, 3), (0, 1), (4, 5)}

    def test_all_nodes_isolated(self):
        ps = PreferenceSystem({0: [], 1: [], 2: []}, 1)
        result, _ = solve_lid(ps)
        assert result.matching.size() == 0
        assert result.metrics.total_sent == 0
        assert all(node.finished for node in result.nodes)


class TestExtremeQuotas:
    def test_mixed_quota_extremes(self):
        # hub with quota 1 among eager leaves with huge quotas
        ps = star(5, quota_center=1)
        result, wt = solve_lid(ps)
        assert result.matching.degree(0) == 1
        assert result.matching.connections(0) == frozenset({1})
        assert greedy_certificate(wt, list(ps.quotas), result.matching)

    def test_certificate_on_every_shape(self):
        for ps in (star(6, 2), star(3, 3)):
            result, wt = solve_lid(ps)
            assert greedy_certificate(wt, list(ps.quotas), result.matching)


def _path_table() -> WeightTable:
    return WeightTable({(0, 1): 1.0, (1, 2): 2.0}, 3)


QUOTA_ENTRIES = {
    "reference": lambda wt, q: run_lid(wt, q),
    "resilient": lambda wt, q: run_resilient_lid(wt, q),
    "fast": lambda wt, q: lid_matching_fast(wt, q),
    "fast-instance": lambda wt, q: lid_matching_fast(
        FastInstance.from_weight_table(wt, [1, 1, 1]), q
    ),
    "sharded": lambda wt, q: sharded_lid_matching(wt, q, shards=2),
    "lowering": lambda wt, q: FastInstance.from_weight_table(wt, q),
}


class TestExplicitQuotaValidation:
    """Every entry taking ``quotas=`` rejects non-integral or negative b_i."""

    @pytest.mark.parametrize("entry", sorted(QUOTA_ENTRIES))
    @pytest.mark.parametrize(
        "bad, node",
        [([-1, 1, 1], 0), ([1.7, 1, 1], 0), ([1, True, 1], 1), ([1, 1, 2.0], 2)],
    )
    def test_rejects_with_node_named(self, entry, bad, node):
        with pytest.raises(ValueError, match=f"quota of node {node} "):
            QUOTA_ENTRIES[entry](_path_table(), bad)

    @pytest.mark.parametrize("entry", sorted(QUOTA_ENTRIES))
    def test_accepts_numpy_integers(self, entry):
        quotas = np.array([1, 1, 0], dtype=np.int64)
        QUOTA_ENTRIES[entry](_path_table(), list(quotas))
        QUOTA_ENTRIES[entry](_path_table(), quotas)


class TestWeightExtremes:
    def test_tiny_weight_gaps_resolved_consistently(self):
        eps = 1e-13
        wt = WeightTable({(0, 1): 1.0, (1, 2): 1.0 + eps, (2, 3): 1.0}, 4)
        lic = lic_matching(wt, [1] * 4)
        lid = run_lid(wt, [1] * 4)
        assert lic.edge_set() == lid.matching.edge_set()

    def test_huge_weight_range(self):
        wt = WeightTable({(0, 1): 1e-9, (1, 2): 1e9}, 3)
        m = lic_matching(wt, [1, 1, 1])
        assert m.edge_set() == {(1, 2)}
