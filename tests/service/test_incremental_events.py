"""Service events cost O(touched): no compaction, byte-identical state.

An incremental event repairs the overlay's own external-id state —
adjacency, weight cache, partner sets — instead of re-indexing the live
peers into a compact instance.  These tests pin both halves of that
claim: the compact instance is never built on the incremental path, and
what the service serves and checkpoints is unchanged.
"""

import copy
import json

import pytest

import repro.core.fast_lid as fast_lid
import repro.service.guards as guards
import repro.service.service as service_module
from repro.core.preferences import PreferenceSystem
from repro.core.weights import satisfaction_weights
from repro.overlay.churn import DynamicOverlay
from repro.service.checkpoint import _state_hash
from repro.service.guards import GuardReport, ServiceGuard
from repro.service.runner import ServiceConfig, build_service


def _fresh_external_weights(svc) -> dict:
    """A from-scratch eq.-9 build of the live instance, keyed by external ids."""
    ps, ids, _ = svc._fresh_instance()
    return {(ids[i], ids[j]): w for (i, j), w in satisfaction_weights(ps).items()}


class TestNoCompactionPerEvent:
    def test_incremental_events_build_no_instance(self, monkeypatch):
        calls = {"PreferenceSystem": 0, "_compact_instance": 0}

        def counting(owner, name):
            raw = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return raw(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        config = ServiceConfig(n=100, seed=0, events=100, workload="poisson")
        svc = build_service(config)
        counting(DynamicOverlay, "_compact_instance")
        original_init = PreferenceSystem.__init__

        def counting_init(self, *args, **kwargs):
            calls["PreferenceSystem"] += 1
            original_init(self, *args, **kwargs)

        monkeypatch.setattr(PreferenceSystem, "__init__", counting_init)
        incremental = 0
        for event in config.trace().events:
            before = dict(calls)
            resolves = svc.counters["full_resolves"]
            outcome = svc.apply(event)
            if outcome.mode == "incremental" and svc.counters["full_resolves"] == resolves:
                incremental += 1
                assert calls == before, f"event {event.seq} ({event.kind}) compacted"
        assert incremental == len(config.trace().events)
        assert svc.counters["guard_violations"] == 0


class TestCacheStaysExact:
    @pytest.mark.parametrize("family", ["geo", "er"])
    def test_cache_equals_fresh_weights_after_every_event(self, family):
        config = ServiceConfig(n=60, family=family, seed=2, events=60)
        svc = build_service(config)
        assert svc._wcache._w == _fresh_external_weights(svc)
        for event in config.trace().events:
            svc.apply(event)
            assert svc._wcache._w == _fresh_external_weights(svc), event.seq


# Recorded by replaying the same configs on the implementation that
# compacted the overlay into ids 0..n-1 on every event (git b3200fd):
# ``build_service(ServiceConfig(n=200, family="geo", seed=s, events=200))``,
# ``apply`` every trace event, then ``_state_hash(svc.snapshot())`` and
# ``svc.counters``.
GOLDEN = {
    0: (
        "24e79950ddb89148f8f2f8a3e322e495c6d1604411d12a055ca0fd822096524f",
        {"crashes": 9, "degraded_entries": 0, "events": 200, "full_resolves": 0,
         "guard_violations": 0, "joins": 88, "leaves": 62, "resolutions": 790,
         "skipped": 0, "stale_dropped": 0, "truncated_repairs": 0, "updates": 41,
         "weights_recomputed": 28366, "weights_reused": 278975},
    ),
    1: (
        "4990390ec327362c4613d1f853db3244bacac5ca25d4d8fef6d870a8ad6cdcea",
        {"crashes": 8, "degraded_entries": 0, "events": 200, "full_resolves": 0,
         "guard_violations": 0, "joins": 72, "leaves": 74, "resolutions": 698,
         "skipped": 0, "stale_dropped": 0, "truncated_repairs": 0, "updates": 46,
         "weights_recomputed": 33158, "weights_reused": 279466},
    ),
}


class TestGoldenSnapshot:
    @pytest.mark.parametrize("seed", sorted(GOLDEN))
    def test_final_snapshot_is_byte_identical(self, seed):
        config = ServiceConfig(n=200, family="geo", seed=seed, events=200)
        svc = build_service(config)
        for event in config.trace().events:
            svc.apply(event)
        state_hash, counters = GOLDEN[seed]
        assert svc.counters == counters
        assert _state_hash(svc.snapshot()) == state_hash


class TestWarmstartUsesBackend:
    def test_reference_warmstart_runs_no_fast_engine(self, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(1)
            return raw(*args, **kwargs)

        raw = fast_lid.lid_matching_fast
        monkeypatch.setattr(fast_lid, "lid_matching_fast", spy)
        monkeypatch.setattr(service_module, "lid_matching_fast", spy, raising=False)
        config = ServiceConfig(n=40, seed=5, events=12, backend="reference",
                               warmstart_rounds=2)
        ref = build_service(config)
        assert ref.last_warmstart is not None
        assert calls == []
        fast = build_service(ServiceConfig(n=40, seed=5, events=12, warmstart_rounds=2))
        assert ref._partners == fast._partners
        for event in config.trace().events:
            ref.apply(event)
            fast.apply(event)
            assert ref._partners == fast._partners
        assert json.dumps(ref.counters) == json.dumps(
            dict(fast.counters, weights_reused=0, weights_recomputed=0)
        )


class TestStructureGuardPasses:
    """The whole-structure passes accept exactly what the peer walk accepts."""

    @staticmethod
    def _corruptions(svc):
        pid = next(p for p, held in svc._partners.items() if held)
        q = min(svc._partners[pid])
        far = next(x for x in sorted(svc._peers) if x != pid and x not in svc._adj[pid])

        def link(s, a, b):
            s._partners[a].add(b)
            s._partners[b].add(a)

        return {
            "clean": lambda s: None,
            "asymmetric": lambda s: s._partners[q].discard(pid),
            "non-neighbour": lambda s: link(s, pid, far),
            "over quota": lambda s: [link(s, pid, x) for x in sorted(s._adj[pid])],
            "departed partner": lambda s: s._peers.pop(q),
            "departed holder": lambda s: s._peers.pop(pid),
            "self-loop": lambda s: s._partners[pid].add(pid),
        }

    def test_passes_agree_with_walk(self, monkeypatch):
        base = build_service(ServiceConfig(n=40, seed=1))
        for label, corrupt in self._corruptions(base).items():
            svc = copy.deepcopy(base)
            corrupt(svc)
            report = GuardReport()
            ServiceGuard().check_structure(svc, report)
            with monkeypatch.context() as m:
                # the peer-by-peer walk alone names what it finds
                m.setattr(guards, "_structure_holds", lambda *args: False)
                walked = GuardReport()
                ServiceGuard().check_structure(svc, walked)
            holds = guards._structure_holds(svc._peers, svc._adj, svc._partners)
            assert holds == (not walked.violations), label
            assert report.violations == walked.violations, label
            assert (label == "clean") == holds, label
