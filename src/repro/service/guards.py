"""Runtime invariant guards for the long-lived matching service.

The service must never *serve* a corrupt matching: the robustness
contract is checked after every applied event, not just at the end of a
trace (the same per-transition philosophy as
:class:`repro.distsim.invariants.InvariantMonitor`, lifted to the
service's external-id state).  Checks:

- **capacity** — no peer holds more partners than its quota
  (:func:`repro.testing.oracles.check_quota` over the compact view is
  the slow-path oracle; the guard checks the same property directly on
  the external partner sets in O(n));
- **mutual consent** — every matched edge joins two live peers that are
  overlay neighbours, and partnership is symmetric;
- **ranking and eq.-9 weight consistency** — for a deterministic sample
  of overlay edges, both endpoints' ranked rows are scored afresh from
  the metric (never read from the rows the overlay maintains) and must
  equal the maintained rows; the cached eq.-9 weight must equal
  :func:`~repro.core.satisfaction.static_increase` evaluated on those
  fresh rows *exactly* (the cache uses the same scalar arithmetic, so
  any drift is corruption, not rounding).

A violation does not raise here: the service reads the
:class:`GuardReport` and demotes itself to degraded full-re-solve mode
(see ``docs/robustness.md`` for the ladder).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import gt

import numpy as np

from repro.core.satisfaction import static_increase

__all__ = ["GuardReport", "ServiceGuard"]


@dataclass
class GuardReport:
    """Outcome of one guard pass."""

    checked_peers: int = 0
    checked_rows: int = 0
    checked_weights: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _structure_holds(peers: dict, adj: dict, partners: dict) -> bool:
    """Whether every partner set passes capacity, liveness and mutual consent.

    The properties :meth:`ServiceGuard.check_structure` names peer by
    peer, decided by C-level passes over the whole structure: every
    holder is live, holds at most its quota and only overlay
    neighbours, and every unordered partner pair is listed from both
    ends.  The last makes every partner a holder, hence live.
    """
    live = peers.keys()
    if not live >= partners.keys():
        return False
    holders = list(partners)
    sets = list(partners.values())
    sizes = list(map(len, sets))
    if any(map(gt, sizes, [peers[pid].quota for pid in holders])):
        return False
    if not all(map(set.issubset, sets, map(adj.get, holders, repeat(())))):
        return False
    total = sum(sizes)
    if not total:
        return True
    owners = np.repeat(np.array(holders, dtype=np.int64), sizes)
    mates = np.fromiter(chain.from_iterable(sets), dtype=np.int64, count=total)
    low = int(min(owners.min(), mates.min()))
    base = int(max(owners.max(), mates.max())) - low + 1
    codes = np.sort(
        (np.minimum(owners, mates) - low) * base + (np.maximum(owners, mates) - low)
    )
    # symmetric exactly when every unordered pair's code occurs twice
    return bool(np.array_equal(codes[0::2], codes[1::2]))


class ServiceGuard:
    """Per-event invariant checks over a service's external-id state.

    Parameters
    ----------
    weight_sample:
        Cap on the number of edges checked per pass (edges are taken in
        sorted key order — the weight cache's keys, or the overlay's
        edges on a backend without a cache — starting at a cursor that
        advances every pass, so successive passes sweep them all).
        ``0`` disables the check.
    """

    def __init__(self, weight_sample: int = 32):
        if weight_sample < 0:
            raise ValueError(f"weight_sample must be >= 0, got {weight_sample}")
        self.weight_sample = weight_sample
        self._weight_cursor = 0

    # -- structural invariants -----------------------------------------

    def check_structure(self, service, report: GuardReport) -> None:
        """Capacity, liveness and mutual consent over the partner sets.

        Every peer is checked on every pass, as whole-structure set and
        array operations (:func:`_structure_holds`); only when those
        fail are the partner sets walked peer by peer to name each
        violation.
        """
        peers = service._peers
        adj = service._adj
        partners = service._partners
        report.checked_peers += len(partners)
        if _structure_holds(peers, adj, partners):
            return
        for pid, mine in partners.items():
            peer = peers.get(pid)
            if peer is None:
                report.violations.append(
                    f"liveness: departed peer {pid} still holds partners"
                )
                continue
            if len(mine) > peer.quota:
                report.violations.append(
                    f"capacity: peer {pid} holds {len(mine)} partners"
                    f" (quota {peer.quota})"
                )
            for q in mine:
                if q not in peers:
                    report.violations.append(
                        f"liveness: peer {pid} matched to departed peer {q}"
                    )
                    continue
                if q not in adj[pid]:
                    report.violations.append(
                        f"mutual consent: peer {pid} matched to"
                        f" non-neighbour {q}"
                    )
                if pid not in partners.get(q, ()):
                    report.violations.append(
                        f"mutual consent: {pid} ~ {q} is asymmetric"
                    )

    # -- ranking and eq.-9 weight consistency ---------------------------

    def check_weights(self, service, report: GuardReport) -> None:
        """Sampled exact re-derivation of the ranked rows and weight cache.

        Each sampled edge's endpoints are scored afresh from the metric,
        so the pass also catches a maintained row or a cached weight that
        survived a preference change it should not have.  Its metric
        calls are bounded by the sample (two rows per edge at most), not
        by the overlay size.  Weights incident to peers whose lists
        changed since the last refresh are *expected* stale and are not
        compared; their rows still are.
        """
        if self.weight_sample == 0:
            return
        cached = service._wcache._w if service._wcache is not None else None
        if cached is not None:
            edges = sorted(cached)
        else:
            edges = sorted(
                (p, q) for p, qs in service._adj.items() for q in qs if p < q
            )
        if not edges:
            return
        start = self._weight_cursor % len(edges)
        take = min(self.weight_sample, len(edges))
        self._weight_cursor += take
        peers, adj, rows = service._peers, service._adj, service._rows
        dirty = service._weight_dirty
        fresh: dict[int, dict[int, int]] = {}  # peer -> {candidate: rank}

        def fresh_ranks(pid: int) -> dict[int, int]:
            if pid not in fresh:
                row = service._score_row(pid)
                report.checked_rows += 1
                if rows.get(pid) != row:
                    report.violations.append(
                        f"ranking drift: peer {pid}'s maintained row differs"
                        " from a fresh scoring"
                    )
                fresh[pid] = {q: r for r, q in enumerate(row.ids)}
            return fresh[pid]

        def delta(ranks: dict[int, int], me: int, other: int) -> float:
            ell = len(ranks)  # quotas clamp to the list length, as in eq. 9
            return static_increase(ranks[other], ell, min(peers[me].quota, ell))

        for off in range(take):
            pa, pb = edges[(start + off) % len(edges)]
            if pa not in peers or pb not in peers:
                report.violations.append(
                    f"weight cache: entry ({pa}, {pb}) names a departed peer"
                )
                continue
            if pb not in adj[pa]:
                report.violations.append(
                    f"weight cache: entry ({pa}, {pb}) is not an instance edge"
                )
                continue
            ranks_a, ranks_b = fresh_ranks(pa), fresh_ranks(pb)
            if cached is None or pa in dirty or pb in dirty:
                continue
            report.checked_weights += 1
            expect = delta(ranks_a, pa, pb) + delta(ranks_b, pb, pa)
            if cached[(pa, pb)] != expect:
                report.violations.append(
                    f"weight drift: cached w({pa},{pb})={cached[(pa, pb)]!r}"
                    f" but eq. 9 gives {expect!r}"
                )

    # ------------------------------------------------------------------

    def check(self, service) -> GuardReport:
        """One full guard pass; never raises."""
        report = GuardReport()
        self.check_structure(service, report)
        self.check_weights(service, report)
        return report
