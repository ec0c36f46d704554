"""Lowering edge cases: ``FastInstance`` and the directed-slot layout.

The sharded engine partitions whatever ``_directed_layout`` produces, so
degenerate inputs — isolated nodes, empty preference lists, explicit
zero quotas, edgeless instances — must lower to well-formed arrays and
then run identically through every engine.
"""

import numpy as np
import pytest

from repro.core.fast import FastInstance
from repro.core.fast_lid import _directed_layout, lid_matching_fast
from repro.core.lid import run_lid
from repro.core.preferences import PreferenceSystem
from repro.core.sharded_lid import partition_nodes, sharded_lid_matching
from repro.core.weights import satisfaction_weights
from repro.testing.strategies import random_ps


def _layout_invariants(fi):
    start, nbr, rev, owner = _directed_layout(fi)
    n, m = fi.n, fi.m
    assert start.shape == (n + 1,)
    assert start[0] == 0 and start[-1] == 2 * m
    assert np.all(np.diff(start) >= 0)
    assert nbr.shape == rev.shape == owner.shape == (2 * m,)
    if m:
        # rev is an involution pairing the two directions of each edge
        s = np.arange(2 * m)
        assert np.array_equal(rev[rev], s)
        assert np.array_equal(owner[rev], nbr)
        assert np.array_equal(nbr[rev], owner)
        # owner matches the CSR offsets
        assert np.array_equal(owner, np.repeat(np.arange(n), np.diff(start)))
    return start, nbr, rev, owner


class TestDirectedLayout:
    def test_edgeless_instance(self):
        ps = PreferenceSystem({0: [], 1: [], 2: []}, quotas={0: 1, 1: 1, 2: 1})
        fi = FastInstance.from_preference_system(ps)
        assert fi.m == 0
        start, nbr, rev, owner = _layout_invariants(fi)
        assert np.array_equal(start, np.zeros(4, dtype=np.int64))
        assert partition_nodes(start, 3).tolist() == sorted(
            partition_nodes(start, 3).tolist()
        )

    def test_isolated_nodes_get_empty_slot_ranges(self):
        ps = PreferenceSystem(
            {0: [2], 1: [], 2: [0, 4], 3: [], 4: [2]},
            quotas={0: 1, 1: 1, 2: 2, 3: 1, 4: 1},
        )
        fi = FastInstance.from_preference_system(ps)
        start, _, _, owner = _layout_invariants(fi)
        assert start[1] - start[0] == 1  # node 0: one slot
        assert start[2] == start[1]  # node 1: isolated
        assert start[4] == start[3]  # node 3: isolated
        assert 1 not in owner and 3 not in owner

    def test_slots_follow_weight_list_order(self):
        ps = random_ps(25, 0.3, 3, seed=11, ensure_edges=True)
        fi = FastInstance.from_preference_system(ps)
        start, nbr, _, _ = _layout_invariants(fi)
        wt = satisfaction_weights(ps)
        for v in range(ps.n):
            assert nbr[start[v]:start[v + 1]].tolist() == wt.weight_list(v)

    def test_partition_respects_empty_tail(self):
        # all edges in the low ids; partitioning must still cover the tail
        ps = PreferenceSystem(
            {0: [1], 1: [0], 2: [], 3: [], 4: [], 5: []},
            quotas={0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1},
        )
        fi = FastInstance.from_preference_system(ps)
        start, _, _, _ = _directed_layout(fi)
        bounds = partition_nodes(start, 4)
        assert bounds[0] == 0 and bounds[-1] == 6
        assert np.all(np.diff(bounds) >= 0)


class TestEngineAgreementOnDegenerates:
    CASES = {
        "isolated-and-empty": PreferenceSystem(
            {0: [1], 1: [0, 2], 2: [1], 3: []},
            quotas={0: 1, 1: 2, 2: 2, 3: 1},
        ),
        "single-edge": PreferenceSystem(
            {0: [1], 1: [0]}, quotas={0: 1, 1: 1}
        ),
        "star": PreferenceSystem(
            {0: [1, 2, 3, 4], 1: [0], 2: [0], 3: [0], 4: [0]},
            quotas={0: 2, 1: 1, 2: 1, 3: 1, 4: 1},
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_all_engines_agree(self, name):
        ps = self.CASES[name]
        ref = run_lid(satisfaction_weights(ps), ps.quotas)
        fast = lid_matching_fast(ps)
        assert fast.matching.edge_set() == ref.matching.edge_set()
        for k in (1, 2, 3):
            sharded = sharded_lid_matching(ps, shards=k)
            assert sharded.matching.edge_set() == ref.matching.edge_set()

    def test_zero_quota_array_starves_node(self):
        ps = PreferenceSystem(
            {0: [1, 2], 1: [0, 2], 2: [0, 1]}, quotas={0: 2, 1: 2, 2: 2}
        )
        quotas = [2, 0, 2]
        ref = run_lid(satisfaction_weights(ps), quotas)
        assert not any(1 in e for e in ref.matching.edge_set())
        for k in (1, 2):
            sharded = sharded_lid_matching(ps, quotas=quotas, shards=k)
            assert sharded.matching.edge_set() == ref.matching.edge_set()

    def test_k1_bit_identity_on_degenerates(self):
        # lid_matching_fast is the one-shard run, so the witness is the
        # independent reference simulator
        for ps in self.CASES.values():
            ref = run_lid(satisfaction_weights(ps), ps.quotas)
            res = sharded_lid_matching(ps, shards=1)
            assert list(res.props_sent) == [nd.props_sent for nd in ref.nodes]
            assert list(res.rejs_sent) == [nd.rejs_sent for nd in ref.nodes]
            assert res.late_messages == ref.late_messages
            assert res.metrics.events == ref.metrics.events
