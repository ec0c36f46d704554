"""The overlay's ranked rows: patched per event, derived on restore.

The service keeps every peer's ranked neighbour list as persistent state
and patches only the rows an event touches.  These tests hold the rows
to a from-scratch :func:`~repro.overlay.builder.build_preference_system`
after every event, across snapshot/restore and degraded entry, and show
that the guard and the differential harness catch a corrupted row
without reading it.
"""

import json

import numpy as np
import pytest

from repro.overlay.builder import RankedRow
from repro.overlay.metrics import (
    DistanceMetric,
    InterestMetric,
    MetricAssignment,
    PrivateTasteMetric,
)
from repro.overlay.peer import Peer
from repro.overlay.scenario import build_scenario
from repro.service.differential import conformance_check
from repro.service.guards import GuardReport, ServiceGuard
from repro.service.runner import ServiceConfig, kill_and_resume_check, run_service
from repro.service.service import MatchingService
from repro.telemetry.sink import canonical_fields

N = 18


def _metrics():
    taste = PrivateTasteMetric(5, base=DistanceMetric(), blend=0.5)
    # InterestMetric scores zero-interest joiners 0.0 against everyone:
    # the equal-score, id-tie-broken insert path gets exercised
    assign = MetricAssignment(
        DistanceMetric(),
        {1: PrivateTasteMetric(9), 4: InterestMetric(), N + 2: InterestMetric()},
    )
    return {"distance": DistanceMetric(), "taste": taste, "assignment": assign}


def _service(metric, backend, **kw) -> MatchingService:
    sc = build_scenario("geo_latency", N, seed=2)
    return MatchingService(sc.topology, sc.peers, metric, backend=backend, **kw)


def _assert_rows_fresh(svc: MatchingService) -> None:
    assert set(svc._rows) == set(svc._peers)
    if svc.n:
        assert svc._compact_instance()[0] == svc._fresh_instance()[0]


def _random_event(svc: MatchingService, rng, repair: bool) -> None:
    ids = svc.active_ids()
    kind = rng.choice(["join", "leave", "crash", "update"]) if len(ids) > 4 else "join"
    if kind == "join":
        k = min(len(ids), int(rng.integers(0, 5)))
        neigh = [int(x) for x in rng.choice(ids, size=k, replace=False)] if k else []
        peer = Peer(peer_id=-1, position=rng.uniform(0, 1, 2), quota=2)
        svc.join(peer, neigh, repair=repair)
    elif kind == "leave":
        svc.leave(int(rng.choice(ids)), repair=repair)
    elif kind == "crash":
        svc.crash(int(rng.choice(ids)), repair=repair)
    else:
        svc.update_position(int(rng.choice(ids)), rng.uniform(0, 1, 2), repair=repair)


class TestRowsMatchFreshBuild:
    @pytest.mark.parametrize("backend", ["reference", "fast"])
    @pytest.mark.parametrize("metric_name", ["distance", "taste", "assignment"])
    @pytest.mark.parametrize("repair", [True, False])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_churn(self, backend, metric_name, repair, seed):
        metric = _metrics()[metric_name]
        svc = _service(metric, backend)
        _assert_rows_fresh(svc)
        rng = np.random.default_rng(seed)
        for _ in range(20):
            _random_event(svc, rng, repair)
            _assert_rows_fresh(svc)

        restored = MatchingService.restore(
            json.loads(json.dumps(svc.snapshot())), metric
        )
        _assert_rows_fresh(restored)
        assert restored._rows == svc._rows

        svc._enter_degraded(GuardReport(violations=["forced"]))
        assert svc.mode == "degraded"
        _assert_rows_fresh(svc)
        for _ in range(5):
            _random_event(svc, rng, repair)
            _assert_rows_fresh(svc)

    def test_equal_scores_break_ties_by_id(self):
        row = RankedRow([(0.0, 7), (-1.0, 9), (0.0, 3)])
        row.insert(0.0, 5)
        row.insert(0.0, 1)
        row.insert(0.0, 8)
        assert list(row.ids) == [9, 1, 3, 5, 7, 8]
        row.remove(5)
        assert row == RankedRow([(0.0, 7), (-1.0, 9), (0.0, 3), (0.0, 1), (0.0, 8)])


class _RecordingGuard(ServiceGuard):
    """A guard that keeps every violation its weight passes report."""

    def __init__(self, weight_sample: int):
        super().__init__(weight_sample=weight_sample)
        self.seen: list[str] = []

    def check_weights(self, service, report):
        before = len(report.violations)
        super().check_weights(service, report)
        self.seen.extend(report.violations[before:])


class TestCorruptedRowIsCaught:
    """Swap two entries of a maintained row: both checks must notice."""

    @staticmethod
    def _corrupt(svc: MatchingService) -> int:
        for pid in svc.active_ids():
            row = svc._rows[pid]
            if len(row.ids) >= 2 and row.scores[0] != row.scores[1]:
                row.ids[0], row.ids[1] = row.ids[1], row.ids[0]
                return pid
        raise AssertionError("no peer with two distinctly scored neighbours")

    def test_guard_and_differential_detect_and_service_recovers(self):
        config = ServiceConfig(n=30, quota=2, seed=4, events=6)
        guard = _RecordingGuard(weight_sample=10_000)  # covers every edge
        sc = build_scenario("geo_latency", config.n, seed=config.seed)
        svc = MatchingService(
            sc.topology, sc.peers, config.metric(), weight_check_every=1,
            degraded_recovery=2, guard=guard,
        )
        victim = self._corrupt(svc)

        report = conformance_check(svc)
        assert not report.rankings_match_fresh
        assert not report.ok

        outcome = svc.apply(config.trace().events[0])
        assert outcome.guard_ok is False
        assert any(
            v.startswith(f"ranking drift: peer {victim}'") for v in guard.seen
        )
        assert svc.mode == "degraded"
        assert svc.counters["degraded_entries"] == 1
        # degraded entry re-scored the rows: the state is whole again
        _assert_rows_fresh(svc)
        healed = conformance_check(svc)
        assert healed.ok and healed.matches_fresh_solve
        clean = GuardReport()
        svc.guard.check_weights(svc, clean)
        assert clean.ok and clean.checked_rows > 0


class TestLatencyFields:
    def test_latency_distribution_reported_not_canonical(self):
        config = ServiceConfig(n=14, quota=2, seed=3, events=24,
                               differential_every=12)
        report = run_service(config).report
        fields = ("event_p50_ms", "event_p99_ms", "event_max_ms")
        for name in fields:
            assert report[name] > 0.0
        assert report["event_p50_ms"] <= report["event_p99_ms"] <= report["event_max_ms"]
        canon = canonical_fields(report)
        assert not set(fields) & set(canon)
        out = kill_and_resume_check(config)
        assert out["identical"], out["mismatches"]
        assert set(fields) <= set(out["report"])
