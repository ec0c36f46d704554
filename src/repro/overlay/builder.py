"""OverlayBuilder: peers + topology + metrics → PreferenceSystem.

The glue of the overlay substrate: every node ranks its topology
neighbourhood with *its own* suitability metric (ties broken by peer
id), and the per-peer quotas become the b-matching quotas.  The output
:class:`~repro.core.preferences.PreferenceSystem` is what all matching
algorithms consume — at that point the metrics themselves are forgotten,
matching the paper's privacy stance (peers disclose ``ΔS̄`` values, not
metrics).

Node ``i`` of the instance corresponds to ``peers[i]``; the peers'
``peer_id`` attributes may differ from their index (they are *external*
ids, stable under churn) — metrics and tie-breaking always use the
external id, so a peer's preferences do not change when unrelated peers
join or leave.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Callable, Iterable, Optional, Sequence

from repro.core.preferences import PreferenceSystem
from repro.overlay.metrics import MetricAssignment, SuitabilityMetric
from repro.overlay.peer import Peer
from repro.overlay.topology import Topology
from repro.utils.validation import InvalidInstanceError

__all__ = ["RankedRow", "build_preference_system", "ranked_row", "scorer"]

#: ``score(peer, candidate)`` — how suitable ``candidate`` is to ``peer``
Score = Callable[[Peer, Peer], float]


def scorer(metric: SuitabilityMetric | MetricAssignment) -> Score:
    """The scoring function a metric (or per-peer assignment) ranks with."""
    return metric.score if isinstance(metric, MetricAssignment) else metric


class RankedRow:
    """One peer's ranked neighbour list, best first.

    Entries are sorted by the key ``(-score, peer_id)``: higher score
    first, ties broken by the smaller external id — the one ranking rule
    of the overlay.  A key depends only on the two peers it names, so a
    row patched in place (:meth:`insert`, :meth:`remove`) stays identical
    to a freshly ranked one.  The keys are stored as two parallel typed
    arrays (16 bytes an entry, no per-entry Python objects), because a
    long-lived overlay keeps one row per peer.
    """

    __slots__ = ("scores", "ids")

    def __init__(self, keys: Iterable[tuple[float, int]] = ()):
        #: ``-score`` of each entry, ascending
        self.scores = array("d")
        #: external peer id of each entry, in rank order
        self.ids = array("q")
        for neg_score, pid in sorted(keys):
            self.scores.append(neg_score)
            self.ids.append(pid)

    def insert(self, neg_score: float, pid: int) -> None:
        """Insert the key ``(neg_score, pid)`` at its sorted position."""
        lo = bisect_left(self.scores, neg_score)
        hi = bisect_right(self.scores, neg_score, lo)
        k = bisect_left(self.ids, pid, lo, hi)  # equal scores: id order
        self.scores.insert(k, neg_score)
        self.ids.insert(k, pid)

    def remove(self, pid: int) -> None:
        """Delete ``pid``'s entry."""
        k = self.ids.index(pid)
        del self.scores[k]
        del self.ids[k]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RankedRow):
            return NotImplemented
        return self.ids == other.ids and self.scores == other.scores

    def __repr__(self) -> str:
        return f"RankedRow({list(zip(self.scores, self.ids))!r})"


def ranked_row(peer: Peer, candidates: Iterable[Peer], score: Score) -> RankedRow:
    """``peer``'s ranking of ``candidates``, scored with ``score``."""
    return RankedRow((-score(peer, c), c.peer_id) for c in candidates)


def build_preference_system(
    topology: Topology,
    peers: Sequence[Peer],
    metric: SuitabilityMetric | MetricAssignment,
    quotas: Optional[Sequence[int]] = None,
    sync_positions: bool = True,
) -> PreferenceSystem:
    """Construct the matching instance for an overlay scenario.

    Parameters
    ----------
    topology:
        The potential-connection graph; node ``i`` corresponds to
        ``peers[i]``.
    peers:
        Peer objects supplying the attributes metrics read.  Their
        ``peer_id`` fields need not equal their index but must be
        distinct (they seed private metrics and break score ties).
    metric:
        A single metric applied by every peer, or a
        :class:`~repro.overlay.metrics.MetricAssignment` giving each
        peer its private metric (keyed by external ``peer_id``).
    quotas:
        Optional explicit quotas; defaults to each peer's ``quota``
        attribute.
    sync_positions:
        When the topology carries positions (geometric families), copy
        them onto the peers so distance metrics see the coordinates the
        graph was built from.
    """
    if len(peers) != topology.n:
        raise InvalidInstanceError(
            f"{len(peers)} peers for a topology of {topology.n} nodes"
        )
    if len({p.peer_id for p in peers}) != len(peers):
        raise InvalidInstanceError("peer ids must be distinct")
    if sync_positions and topology.positions is not None:
        for i, peer in enumerate(peers):
            peer.position = topology.positions[i]

    score = scorer(metric)
    index = {p.peer_id: i for i, p in enumerate(peers)}
    rankings = {
        i: [
            index[pid]
            for pid in ranked_row(
                peers[i], [peers[j] for j in topology.adjacency[i]], score
            ).ids
        ]
        for i in range(topology.n)
    }
    if quotas is None:
        quotas = [p.quota for p in peers]
    return PreferenceSystem(rankings, list(quotas))
