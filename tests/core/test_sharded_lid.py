"""The sharded LID engine: partitioned waves must replay the reference.

Three tiers of pinning, mirroring the module's correctness argument:

- ``shards=1`` is **bit-identical** to the reference simulator
  ``run_lid`` — matching, per-node message statistics, metric counters,
  probe trajectory.  ``lid_matching_fast`` *is* this one-shard run, so
  the witness must be the independent event-by-event engine;
- any ``shards=k`` produces the **identical matching** (the locked edge
  set is schedule-invariant, Lemmas 3–6), while message statistics may
  legitimately differ;
- the execution substrates are interchangeable: the one wave kernel on
  list state vs ndarray state, serial executor vs multiprocessing
  workers — all bit-identical to each other for fixed
  ``(instance, shards)``.
"""

import warnings

import numpy as np
import pytest

from repro.core.backend import ShardedBackend, get_backend
from repro.core.fast import FastInstance
from repro.core.fast_lid import _directed_layout
from repro.core.lid import run_lid, solve_lid
from repro.core.preferences import PreferenceSystem
from repro.core.sharded_lid import (
    NUMBA_AVAILABLE,
    ShardedLidResult,
    partition_nodes,
    sharded_lid_matching,
    warm_jit_kernels,
)
from repro.core.weights import satisfaction_weights
from repro.telemetry.probes import ConvergenceProbe
from repro.telemetry.spans import Telemetry
from repro.testing.strategies import random_ps


def _assert_replays_reference(ref, sharded):
    """Every observable of a reference ``run_lid`` result, field for field."""
    assert sharded.matching.edge_set() == ref.matching.edge_set()
    assert list(sharded.props_sent) == [nd.props_sent for nd in ref.nodes]
    assert list(sharded.rejs_sent) == [nd.rejs_sent for nd in ref.nodes]
    assert sharded.late_messages == ref.late_messages
    assert sharded.metrics.sent_by_kind == ref.metrics.sent_by_kind
    assert sharded.metrics.delivered_by_kind == ref.metrics.delivered_by_kind
    assert sharded.metrics.sent_by_node == ref.metrics.sent_by_node
    assert sharded.metrics.received_by_node == ref.metrics.received_by_node
    assert sharded.metrics.events == ref.metrics.events
    assert sharded.metrics.end_time == ref.metrics.end_time
    assert sharded.metrics.max_depth == ref.metrics.max_depth


def _reference(ps, quotas=None, **kwargs):
    """The event-by-event simulator on the same instance."""
    wt = satisfaction_weights(ps)
    return run_lid(wt, ps.quotas if quotas is None else quotas, **kwargs)


def _assert_bit_identical(ref, sharded):
    """Every observable of another array-engine run, field for field."""
    assert sharded.matching.edge_set() == ref.matching.edge_set()
    assert np.array_equal(sharded.props_sent, ref.props_sent)
    assert np.array_equal(sharded.rejs_sent, ref.rejs_sent)
    assert sharded.late_messages == ref.late_messages
    assert sharded.metrics.sent_by_kind == ref.metrics.sent_by_kind
    assert sharded.metrics.delivered_by_kind == ref.metrics.delivered_by_kind
    assert sharded.metrics.sent_by_node == ref.metrics.sent_by_node
    assert sharded.metrics.received_by_node == ref.metrics.received_by_node
    assert sharded.metrics.events == ref.metrics.events
    assert sharded.metrics.end_time == ref.metrics.end_time
    assert sharded.metrics.max_depth == ref.metrics.max_depth


class TestSingleShardBitIdentity:
    @pytest.mark.parametrize("seed", range(4))
    def test_k1_replays_fast_engine(self, seed):
        # the fast engine's contract (replay run_lid), checked on the
        # one-shard run lid_matching_fast delegates to
        ps = random_ps(60, 0.12, 3, seed=seed, ensure_edges=True)
        res = sharded_lid_matching(ps, shards=1)
        assert isinstance(res, ShardedLidResult)
        assert res.shards == 1
        assert res.cut_messages == 0  # no boundary to cross
        _assert_replays_reference(_reference(ps), res)

    @pytest.mark.parametrize("interval", [1.0, 2.5])
    def test_k1_probe_trajectory_bit_identical(self, interval):
        ps = random_ps(50, 0.15, 3, seed=2, ensure_edges=True)
        p_ref = ConvergenceProbe(interval)
        p_sh = ConvergenceProbe(interval)
        _reference(ps, probe=p_ref)
        sharded_lid_matching(ps, shards=1, probe=p_sh)
        assert p_sh.samples == p_ref.samples

    def test_k1_array_kernel_also_bit_identical(self):
        ps = random_ps(40, 0.2, 3, seed=7, ensure_edges=True)
        res = sharded_lid_matching(ps, shards=1, _kernel="arrays")
        _assert_replays_reference(_reference(ps), res)


class TestMultiShardMatchingInvariance:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("shards", [2, 3, 5])
    def test_matching_equals_reference_lid(self, seed, shards):
        ps = random_ps(45, 0.15, 3, seed=seed, ensure_edges=True)
        wt = satisfaction_weights(ps)
        ref = run_lid(wt, ps.quotas)
        res = sharded_lid_matching(ps, shards=shards)
        assert res.shards == shards
        assert res.matching.edge_set() == ref.matching.edge_set()

    def test_cut_traffic_flows_on_connected_instances(self):
        ps = random_ps(60, 0.2, 3, seed=1, ensure_edges=True)
        res = sharded_lid_matching(ps, shards=3)
        assert res.cut_messages > 0
        # per-shard processed counts account for every delivery
        assert sum(s["processed"] for s in res.shard_stats) == sum(
            res.metrics.delivered_by_kind.values()
        )
        assert sum(s["late"] for s in res.shard_stats) == res.late_messages
        assert [s["shard"] for s in res.shard_stats] == [0, 1, 2]

    def test_shards_clamped_to_n(self):
        ps = random_ps(8, 0.5, 2, seed=0, ensure_edges=True)
        res = sharded_lid_matching(ps, shards=64)
        assert res.shards <= ps.n
        assert res.matching.edge_set() == _reference(ps).matching.edge_set()


class TestKernelEquivalence:
    @pytest.mark.parametrize("shards", [1, 3])
    def test_array_kernel_matches_list_kernel(self, shards):
        # the one kernel on ndarray state (what numba compiles) vs list
        # state: tier-1's only check of numba's data path without numba
        ps = random_ps(55, 0.15, 3, seed=3, ensure_edges=True)
        a = sharded_lid_matching(ps, shards=shards, _kernel="arrays")
        b = sharded_lid_matching(ps, shards=shards, _kernel="list")
        _assert_bit_identical(b, a)
        assert a.cut_messages == b.cut_messages
        assert [s["processed"] for s in a.shard_stats] == [
            s["processed"] for s in b.shard_stats
        ]

    def test_array_layout_probe_matches_list_layout(self):
        # > 255 nodes per shard: per-node byte state must be counted,
        # not summed in its own uint8 width
        ps = random_ps(300, 0.02, 2, seed=5, ensure_edges=True)
        p_arr, p_list = ConvergenceProbe(1.0), ConvergenceProbe(1.0)
        sharded_lid_matching(ps, shards=1, _kernel="arrays", probe=p_arr)
        sharded_lid_matching(ps, shards=1, _kernel="list", probe=p_list)
        assert p_arr.samples == p_list.samples
        assert p_arr.final().finished_nodes == ps.n

    def test_jit_true_without_numba_warns_and_falls_back(self):
        if NUMBA_AVAILABLE:
            pytest.skip("numba installed: the jit path is exercised directly")
        ps = random_ps(20, 0.3, 2, seed=0, ensure_edges=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = sharded_lid_matching(ps, shards=2, jit=True)
        assert res.jit is False
        assert any(
            issubclass(w.category, RuntimeWarning) and "numba" in str(w.message)
            for w in caught
        )
        assert warm_jit_kernels() is False
        with pytest.raises(ValueError, match="requires numba"):
            sharded_lid_matching(ps, shards=2, _kernel="jit")

    @pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")
    def test_jit_kernel_bit_identical(self):
        assert warm_jit_kernels() is True
        ps = random_ps(55, 0.15, 3, seed=3, ensure_edges=True)
        a = sharded_lid_matching(ps, shards=3, _kernel="jit")
        b = sharded_lid_matching(ps, shards=3, _kernel="list")
        assert a.jit is True
        _assert_bit_identical(b, a)


class TestMultiprocessingExecutor:
    def test_workers_match_serial_bit_for_bit(self):
        ps = random_ps(80, 0.1, 3, seed=1, ensure_edges=True)
        serial = sharded_lid_matching(ps, shards=3, workers=0)
        parallel = sharded_lid_matching(ps, shards=3, workers=2)
        _assert_bit_identical(serial, parallel)
        assert parallel.cut_messages == serial.cut_messages
        assert [s["processed"] for s in parallel.shard_stats] == [
            s["processed"] for s in serial.shard_stats
        ]

    def test_workers_probe_matches_serial(self):
        ps = random_ps(40, 0.2, 2, seed=4, ensure_edges=True)
        p_ser = ConvergenceProbe(1.0)
        p_par = ConvergenceProbe(1.0)
        sharded_lid_matching(ps, shards=2, workers=0, probe=p_ser)
        sharded_lid_matching(ps, shards=2, workers=2, probe=p_par)
        assert p_par.samples == p_ser.samples


class TestProbeAndTelemetry:
    def test_multi_shard_probe_final_state_consistent(self):
        ps = random_ps(50, 0.15, 3, seed=6, ensure_edges=True)
        probe = ConvergenceProbe(1.0)
        res = sharded_lid_matching(ps, shards=3, probe=probe)
        final = probe.final()
        assert final.finished_nodes == ps.n
        assert final.outstanding_props == 0
        assert final.locks == 2 * res.matching.size()
        assert final.props_sent == int(res.props_sent.sum())
        assert final.rejs_sent == int(res.rejs_sent.sum())
        ticks = [s.t for s in probe.samples]
        assert ticks == sorted(ticks)

    def test_per_shard_spans_recorded(self):
        ps = random_ps(40, 0.2, 3, seed=0, ensure_edges=True)
        tel = Telemetry()
        with tel.span("cell"):
            res = sharded_lid_matching(ps, shards=2, telemetry=tel)
        paths = [r.path for r in tel.records()]
        assert "cell/partition" in paths
        assert "cell/sim_loop/shard0" in paths
        assert "cell/sim_loop/shard1" in paths
        assert "cell/sim_loop/reconcile" in paths
        # engine-level phase dict still reports the top-level phases
        assert {"build_weights", "partition", "sim_loop", "extract"} <= set(
            res.metrics.phase_seconds
        )
        assert len(res.shard_stats) == 2
        assert all("wave_ms" in s for s in res.shard_stats)


class TestEdgeCases:
    def test_isolated_nodes_and_empty_lists(self):
        ps = PreferenceSystem(
            {0: [1], 1: [0, 2], 2: [1], 3: []},
            quotas={0: 1, 1: 2, 2: 2, 3: 1},
        )
        ref = _reference(ps)
        for k in (1, 2, 8):
            res = sharded_lid_matching(ps, shards=k)
            assert res.matching.edge_set() == ref.matching.edge_set()
        _assert_replays_reference(ref, sharded_lid_matching(ps, shards=1))

    def test_explicit_zero_quota(self):
        ps = PreferenceSystem(
            {0: [1, 2], 1: [0], 2: [0]}, quotas={0: 2, 1: 1, 2: 1}
        )
        ref = _reference(ps, quotas=[0, 1, 1])
        for k in (1, 2):
            res = sharded_lid_matching(ps, quotas=[0, 1, 1], shards=k)
            assert res.matching.edge_set() == ref.matching.edge_set()
            assert not any(i == 0 or j == 0 for i, j in res.matching.edge_set())

    def test_edgeless_instance(self):
        ps = PreferenceSystem({0: [], 1: []}, quotas={0: 1, 1: 1})
        res = sharded_lid_matching(ps, shards=3)
        assert res.matching.edge_set() == frozenset()
        assert res.metrics.events == 0
        assert res.metrics.end_time == 0.0

    def test_bad_kernel_override_rejected(self):
        ps = random_ps(10, 0.3, 2, seed=0, ensure_edges=True)
        with pytest.raises(ValueError, match="unknown kernel"):
            sharded_lid_matching(ps, _kernel="cython")


class TestPartitionNodes:
    def test_balances_slots_not_nodes(self):
        # one hub with 12 slots, many leaves with 1 each
        deg = np.array([12] + [1] * 12, dtype=np.int64)
        start = np.zeros(14, dtype=np.int64)
        np.cumsum(deg, out=start[1:])
        bounds = partition_nodes(start, 2)
        assert bounds[0] == 0 and bounds[-1] == 13
        slots = np.diff(start[bounds])
        assert abs(int(slots[0]) - int(slots[1])) <= 12  # hub is indivisible

    @pytest.mark.parametrize("k", [1, 2, 5, 100])
    def test_bounds_are_monotone_and_cover(self, k):
        ps = random_ps(30, 0.2, 3, seed=0, ensure_edges=True)
        start, _, _, _ = _directed_layout(FastInstance.from_preference_system(ps))
        bounds = partition_nodes(start, k)
        assert bounds[0] == 0 and bounds[-1] == ps.n
        assert np.all(np.diff(bounds) >= 0)


class TestBackendWiring:
    def test_sharded_backend_lid(self):
        ps = random_ps(30, 0.2, 3, seed=2, ensure_edges=True)
        be = get_backend("sharded")
        wt = be.build_weights(ps)
        res = be.lid(wt, list(ps.quotas))
        assert isinstance(res, ShardedLidResult)
        assert res.matching.edge_set() == _reference(ps).matching.edge_set()

    def test_solve_lid_sharded(self):
        ps = random_ps(30, 0.2, 3, seed=3, ensure_edges=True)
        fast, _ = solve_lid(ps, backend="fast")
        sharded, _ = solve_lid(ps, backend=ShardedBackend(shards=2))
        assert sharded.shards == 2
        assert sharded.matching.edge_set() == fast.matching.edge_set()

    def test_solve_lid_sharded_rejects_faults(self):
        ps = random_ps(10, 0.3, 2, seed=0, ensure_edges=True)
        with pytest.raises(ValueError, match="fault-injected"):
            solve_lid(ps, backend="sharded", drop_filter=lambda *a: False)
