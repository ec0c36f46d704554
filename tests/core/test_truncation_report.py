"""The array truncation report equals its oracle, :mod:`repro.baselines.verify`.

:func:`repro.core.truncation.finalize_truncation` computes the quality
fields of a :class:`~repro.core.truncation.TruncationReport` in one
vectorised pass over the :class:`~repro.core.fast.FastInstance` arrays.
The fields are *defined* by the scalar reference code, which shares no
array code with the report:

- ``blocking_pairs`` by :func:`~repro.baselines.verify.count_blocking_pairs`;
- ``weighted_blocking_pairs`` by
  :func:`~repro.baselines.verify.count_weighted_blocking_pairs` over the
  eq.-9 :class:`~repro.core.weights.WeightTable`;
- ``satisfaction`` by :meth:`Matching.total_satisfaction`;
- ``satisfaction_ratio`` by that satisfaction over the satisfaction of
  the scalar :func:`~repro.core.lic.lic_matching` edge set.

Every comparison is ``==``: counts and floats alike.  The regular-graph
cases make many eq.-9 weights tie, so the ``(i, j)`` tie-break of the
total order decides whether a pair weight-blocks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.verify import (
    count_blocking_pairs,
    count_weighted_blocking_pairs,
)
from repro.core.fast import FastInstance, lic_matching_fast
from repro.core.lic import lic_matching
from repro.core.lid import solve_lid
from repro.core.matching import Matching
from repro.core.preferences import PreferenceSystem
from repro.core.truncation import TruncationReport, finalize_truncation
from repro.core.weights import satisfaction_weights
from repro.testing.strategies import (
    InstanceSpec,
    generate_instance,
    preference_systems,
    random_ps,
)

INF = 1 << 30
KS = (0, 1, 2, 3, INF)


def _oracle(ps: PreferenceSystem, matching: Matching) -> tuple:
    wt = satisfaction_weights(ps)
    sat = matching.total_satisfaction(ps)
    base = lic_matching(wt, ps.quotas).total_satisfaction(ps)
    return (
        count_blocking_pairs(ps, matching),
        count_weighted_blocking_pairs(ps, matching, wt),
        sat,
        sat / base if base > 0 else 1.0,
    )


def _fields(report: TruncationReport) -> tuple:
    return (
        report.blocking_pairs,
        report.weighted_blocking_pairs,
        report.satisfaction,
        report.satisfaction_ratio,
    )


def _array_report(ps: PreferenceSystem, matching: Matching) -> tuple:
    fi = FastInstance.from_preference_system(ps)
    mask = fi.edge_mask(*matching.edge_arrays())
    blank = TruncationReport(max_rounds=None, rounds=0, converged=False, released_locks=0)
    return _fields(finalize_truncation(blank, fi, mask))


def _regular(n: int, quota: int, seed: int) -> PreferenceSystem:
    return generate_instance(InstanceSpec(
        family="reg", n=n, preference_model="uniform",
        quota_model="constant", quota=quota, seed=seed,
    ))


def _random_feasible_matching(ps: PreferenceSystem, order, size: int) -> Matching:
    """Greedy feasible matching: scan ``ps.edges()`` in ``order``, keep ``size`` edges."""
    edges = ps.edges()
    out = Matching(ps.n)
    for k in order:
        if out.size() >= size:
            break
        i, j = edges[k % len(edges)]
        if (
            not out.has_edge(i, j)
            and out.degree(i) < ps.quota(i)
            and out.degree(j) < ps.quota(j)
        ):
            out.add(i, j)
    return out


class TestSolveLidReport:
    @settings(max_examples=60, deadline=None)
    @given(preference_systems(max_n=9), st.sampled_from(KS))
    def test_hypothesis_instances_at_every_budget(self, ps, k):
        res, _ = solve_lid(ps, backend="fast", max_rounds=k)
        assert _fields(res.truncation) == _oracle(ps, res.matching)

    @pytest.mark.parametrize("backend", ["reference", "fast", "sharded"])
    @pytest.mark.parametrize("k", KS)
    def test_every_backend(self, backend, k):
        for ps in (
            random_ps(30, 0.25, 3, seed=11, ensure_edges=True),
            _regular(24, 2, seed=3),
        ):
            res, _ = solve_lid(ps, backend=backend, max_rounds=k)
            assert _fields(res.truncation) == _oracle(ps, res.matching)

    def test_engine_mask_is_the_matching(self):
        ps = random_ps(40, 0.2, 3, seed=12, ensure_edges=True)
        fi = FastInstance.from_preference_system(ps)
        for backend in ("fast", "sharded"):
            for k in KS:
                res, _ = solve_lid(ps, backend=backend, max_rounds=k)
                assert np.array_equal(
                    res.matched_mask, fi.edge_mask(*res.matching.edge_arrays())
                )

    def test_converged_run_reports_the_fixpoint(self):
        ps = _regular(40, 3, seed=5)
        res, _ = solve_lid(ps, backend="fast", max_rounds=INF)
        assert res.truncation.converged
        assert res.truncation.weighted_blocking_pairs == 0
        assert res.truncation.satisfaction_ratio == 1.0


class TestEdgeCases:
    def test_isolated_nodes(self):
        ps = PreferenceSystem(
            {0: [1, 2], 1: [2, 0], 2: [0, 1], 3: [], 4: [5], 5: [4], 6: []}, 1
        )
        for k in KS:
            res, _ = solve_lid(ps, backend="fast", max_rounds=k)
            assert _fields(res.truncation) == _oracle(ps, res.matching)
        for matching in (Matching(ps.n), Matching(ps.n, [(0, 2)])):
            assert _array_report(ps, matching) == _oracle(ps, matching)

    def test_empty_matching(self):
        ps = random_ps(25, 0.3, 2, seed=13, ensure_edges=True)
        got = _array_report(ps, Matching(ps.n))
        assert got == _oracle(ps, Matching(ps.n))
        assert got[:2] == (ps.m, ps.m)  # every edge blocks the empty matching
        assert got[2:] == (0.0, 0.0)

    def test_instance_without_edges(self):
        ps = PreferenceSystem({0: [], 1: [], 2: []}, 1)
        assert _array_report(ps, Matching(ps.n)) == (0, 0, 0.0, 1.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_full_lic_matching(self, seed):
        for ps in (random_ps(35, 0.2, 3, seed=seed, ensure_edges=True), _regular(30, 2, seed)):
            lic = lic_matching_fast(ps)
            got = _array_report(ps, lic)
            assert got == _oracle(ps, lic)
            assert got[1] == 0 and got[3] == 1.0


class TestTiedWeights:
    """A regular graph with uniform quotas: eq.-9 weights tie in bulk."""

    @pytest.mark.parametrize("quota", [1, 2, 3])
    def test_ties_are_present(self, quota):
        fi = FastInstance.from_preference_system(_regular(30, quota, seed=quota))
        assert len(np.unique(fi.w)) < fi.m // 4

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 3),
        st.integers(0, 5),
        st.lists(st.integers(0, 10_000), min_size=1, max_size=80),
        st.integers(0, 60),
    )
    def test_random_feasible_matchings(self, quota, seed, order, size):
        ps = _regular(16, quota, seed)
        matching = _random_feasible_matching(ps, order, size)
        assert _array_report(ps, matching) == _oracle(ps, matching)

    @pytest.mark.parametrize("k", KS)
    def test_truncated_runs(self, k):
        for quota in (1, 2, 3):
            ps = _regular(50, quota, seed=quota)
            res, _ = solve_lid(ps, backend="fast", max_rounds=k)
            assert _fields(res.truncation) == _oracle(ps, res.matching)


class TestPhaseSeconds:
    ENGINE_PHASES = {"build_weights", "sim_loop", "extract"}

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_truncated_runs_time_the_report(self, backend):
        ps = random_ps(30, 0.25, 3, seed=14, ensure_edges=True)
        res, _ = solve_lid(ps, backend=backend, max_rounds=2)
        phases = res.metrics.phase_seconds
        assert set(phases) == self.ENGINE_PHASES | {"truncation_report"}
        assert phases["truncation_report"] >= 0.0

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_converged_runs_keep_the_engine_phases(self, backend):
        ps = random_ps(30, 0.25, 3, seed=14, ensure_edges=True)
        res, _ = solve_lid(ps, backend=backend)
        assert set(res.metrics.phase_seconds) == self.ENGINE_PHASES
