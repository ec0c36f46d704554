"""Dynamic overlays: joins, leaves and incremental repair (paper §7).

The published LID "does not handle dynamicity, i.e. joins/leaves of
peers"; the conclusion asks whether "the same greedy strategy ... can
tackle such issues".  This module answers constructively:

**Observation.**  The LIC/LID output is exactly the matching with *no
weighted blocking edge* (Lemma 4/6 certificate,
:func:`repro.core.analysis.weighted_blocking_edges`) — i.e. the unique
stable b-matching of the weight-list preference system.  Uniqueness
follows by the standard heaviest-edge induction: the globally heaviest
edge belongs to every such matching, and so on down the (strict) key
order.  Therefore, after any local change (a peer joins or leaves —
which also re-scales the eq.-9 weights of its neighbours, whose list
lengths change), the greedy matching of the *new* instance can be
reached from the surviving matching by resolving weighted blocking
edges — a purely local process radiating from the changed region.

:class:`DynamicOverlay` maintains a peer population, its potential
links and the current matching; :meth:`DynamicOverlay.leave` /
:meth:`DynamicOverlay.join` apply churn events and repair
incrementally, returning :class:`RepairStats` whose cost the A3 bench
compares against the from-scratch re-run (the results are verified
*identical* — the repair is exact, not heuristic).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.core.backend import Backend, get_backend
from repro.core.fast import FastInstance
from repro.core.matching import Matching
from repro.core.preferences import PreferenceSystem
from repro.core.satisfaction import delta_static
from repro.core.weights import WeightTable
from repro.overlay.builder import (
    RankedRow,
    build_preference_system,
    ranked_row,
    scorer,
)
from repro.overlay.metrics import MetricAssignment, SuitabilityMetric
from repro.overlay.peer import Peer
from repro.overlay.topology import Topology
from repro.utils.validation import InvalidInstanceError, ProtocolError

__all__ = ["RepairStats", "DynamicOverlay", "WeightCache", "greedy_repair"]


@dataclass
class RepairStats:
    """Cost accounting of one incremental repair.

    Attributes
    ----------
    resolutions:
        Number of weighted-blocking-edge resolutions (connection
        changes) performed.
    dirty_nodes:
        Number of distinct nodes the repair wave touched.
    edges_scanned:
        Total candidate-edge examinations — the work measure compared
        against a full re-run's ``m log m`` scan in bench A3.
    weights_reused:
        Eq.-9 edge weights taken from the :class:`WeightCache` instead
        of being recomputed (0 on the reference backend, which rebuilds
        the whole table).
    weights_recomputed:
        Eq.-9 edge weights actually recomputed for this event.
    truncated:
        The repair stopped because its ``budget`` ran out before the
        no-blocking-edge fixpoint was reached (the caller decides
        whether to full-re-solve or serve the almost-stable state).
    stale_dropped:
        Matched edges scrubbed because one endpoint departed the
        instance (or the edge itself vanished) since the matching was
        built — the "leaving while still listed" churn race.
    """

    resolutions: int = 0
    dirty_nodes: int = 0
    edges_scanned: int = 0
    weights_reused: int = 0
    weights_recomputed: int = 0
    truncated: bool = False
    stale_dropped: int = 0


class WeightCache:
    """Incremental eq.-9 weight store keyed by *external* peer-id pairs.

    A churn event only changes the preference lists (hence list lengths,
    ranks and clamped quotas) of the joining/leaving peer and its
    overlay neighbours; every other edge keeps its exact eq.-9 weight.
    The cache exploits this: :meth:`refresh` rebuilds the weight dict
    for the current edge set (pruning edges of departed peers as a side
    effect) but only *recomputes* weights incident to the declared
    weight-dirty peers, copying everything else from the previous event.

    Keys are stable external peer ids, so entries survive the
    compaction remap that follows every churn event.  Recomputed values
    use the same scalar arithmetic as the reference
    (:func:`repro.core.satisfaction.delta_static`), and the bulk fill
    uses :class:`repro.core.fast.FastInstance` — both bit-identical, so
    a cached table is indistinguishable from a fresh
    :func:`~repro.core.weights.satisfaction_weights` build.
    """

    __slots__ = ("_w",)

    def __init__(self) -> None:
        self._w: dict[tuple[int, int], float] = {}

    def __len__(self) -> int:
        return len(self._w)

    def clear(self) -> None:
        """Drop all cached weights (next refresh bulk-fills)."""
        self._w.clear()

    def seed(self, wt: WeightTable, ids: list[int]) -> None:
        """Warm the cache from an already-built compact weight table."""
        self._w = {(ids[a], ids[b]): w for (a, b), w in wt.items()}

    def refresh(
        self,
        ps: PreferenceSystem,
        ids: list[int],
        weight_dirty: "set[int] | frozenset[int]",
    ) -> tuple[WeightTable, int, int]:
        """Weight table for the compact instance; returns ``(wt, reused, recomputed)``.

        ``weight_dirty`` holds the external ids whose preference lists
        may have changed since the previous refresh; every edge touching
        one of them is recomputed, the rest are copied forward.
        """
        if not self._w:
            # cold start: vectorised bulk fill, everything "recomputed"
            fi = FastInstance.from_preference_system(ps)
            i_list, j_list, w_list = fi.i.tolist(), fi.j.tolist(), fi.w.tolist()
            self._w = {
                (ids[a], ids[b]): w for a, b, w in zip(i_list, j_list, w_list)
            }
            compact = dict(zip(zip(i_list, j_list), w_list))
            return WeightTable.from_trusted(compact, ps.n), 0, len(compact)
        new: dict[tuple[int, int], float] = {}
        compact: dict[tuple[int, int], float] = {}
        cached = self._w
        reused = recomputed = 0
        for a, b in ps.edges():
            pa, pb = ids[a], ids[b]  # ids is sorted, so pa < pb
            w = cached.get((pa, pb))
            if w is None or pa in weight_dirty or pb in weight_dirty:
                w = delta_static(ps, a, b) + delta_static(ps, b, a)
                recomputed += 1
            else:
                reused += 1
            new[(pa, pb)] = w
            compact[(a, b)] = w
        self._w = new
        return WeightTable.from_trusted(compact, ps.n), reused, recomputed


def greedy_repair(
    wt: WeightTable,
    quotas: "list[int] | Sequence[int]",
    matching: Matching,
    dirty: "set[int] | Iterable[int]",
    max_steps: int = 1_000_000,
    budget: Optional[int] = None,
) -> RepairStats:
    """Restore the no-weighted-blocking-edge fixpoint from a local change.

    Repeatedly finds the heaviest blocking edge incident to the dirty
    region, adds it (endpoints over quota drop their lightest partner,
    which joins the dirty region) until no blocking edge remains.
    Mutates ``matching`` in place.

    Correctness: every edge whose blocking status may have changed is
    incident to a dirty node — initial dirtiness covers all nodes whose
    weights or adjacency changed, and each resolution dirties every node
    it touches.  Termination: weight keys are a strict total order, and
    each resolution strictly improves the lexicographic profile of both
    endpoints (standard acyclic-potential argument for globally ranked
    preferences).

    Robustness (the contract the long-lived service relies on):

    - Structural input mismatches — ``quotas`` or ``matching`` sized for
      a different instance than ``wt``, or a negative quota — raise
      :class:`~repro.utils.validation.InvalidInstanceError` eagerly.
    - Churn races are *absorbed*, not raised: dirty ids outside the
      instance (departed peers) are dropped, and matched edges whose
      weight no longer exists (a partner left while still listed, or an
      overlay edge vanished) are scrubbed first, their surviving
      endpoints joining the dirty region (``stats.stale_dropped``).
    - An empty or fully-departed instance returns a well-formed
      zero :class:`RepairStats`.
    - ``budget`` caps the number of resolutions: when it runs out the
      repair returns the current *feasible* (but possibly still
      blocking-edge-carrying) matching with ``stats.truncated`` set,
      instead of raising — the almost-stable degraded mode of
      Floréen et al. that the service trades against a full re-solve.
    """
    n = wt.n
    if len(quotas) != n:
        raise InvalidInstanceError(
            f"quotas sized for {len(quotas)} nodes but weight table has {n}"
        )
    if matching.n != n:
        raise InvalidInstanceError(
            f"matching sized for {matching.n} nodes but weight table has {n}"
        )
    if any(q < 0 for q in quotas):
        raise InvalidInstanceError(f"negative quota in {quotas!r}")
    if budget is not None and budget < 0:
        raise InvalidInstanceError(f"repair budget must be >= 0, got {budget}")

    stats = RepairStats()
    dirty = {v for v in dirty if 0 <= v < n}
    if n == 0:
        return stats

    # scrub stale matched edges (endpoint departed / edge withdrawn):
    # they no longer exist in the instance, so they must neither block
    # candidate edges nor survive into the repaired matching
    for a, b in matching.edges():
        if not wt.has_edge(a, b):
            matching.remove(a, b)
            stats.stale_dropped += 1
            dirty.update((a, b))

    # weakest[v]: (key, partner) of v's lightest held edge, or None when
    # v holds no partner; computed on demand, dropped whenever v's
    # partners change, so `wants` is O(1) instead of a partner scan
    weakest: dict[int, Optional[tuple]] = {}

    def lightest(v: int) -> Optional[tuple]:
        if v not in weakest:
            weakest[v] = min(
                ((wt.key(v, c), c) for c in matching.connections(v)), default=None
            )
        return weakest[v]

    def wants(v: int, u: int) -> bool:
        if matching.degree(v) < quotas[v]:
            return True
        held = lightest(v)
        return held is not None and held[0] < wt.key(v, u)

    steps = 0
    while True:
        best: Optional[tuple] = None
        best_edge: Optional[tuple[int, int]] = None
        for v in dirty:
            for u in wt.neighbors(v):
                stats.edges_scanned += 1
                if matching.has_edge(v, u):
                    continue
                if wants(v, u) and wants(u, v):
                    k = wt.key(v, u)
                    if best is None or k > best:
                        best = k
                        best_edge = (v, u)
        if best_edge is None:
            break
        if budget is not None and stats.resolutions >= budget:
            # a blocking edge remains but the budget is spent: stop with
            # a feasible almost-stable matching instead of raising
            stats.truncated = True
            break
        i, j = best_edge
        for v in (i, j):
            if matching.degree(v) >= quotas[v]:
                worst = lightest(v)[1]
                matching.remove(v, worst)
                dirty.add(worst)
                weakest.pop(worst, None)
        matching.add(i, j)
        weakest.pop(i, None)
        weakest.pop(j, None)
        dirty.update((i, j))
        stats.resolutions += 1
        steps += 1
        if steps > max_steps:  # pragma: no cover - safety valve
            raise ProtocolError("repair did not converge; potential argument violated?")
    stats.dirty_nodes = len(dirty)
    return stats


class DynamicOverlay:
    """A churning overlay with an incrementally maintained greedy matching.

    Peers keep stable external ids; internally every operation works on
    the compacted id space of currently active peers.  The invariant
    after construction and after every churn event is::

        self.matching == LIC(current instance)   # checked in tests

    Besides the matching, the overlay keeps every active peer's ranked
    neighbour list as persistent state: a sorted row of ``(-score,
    peer_id)`` keys (:class:`~repro.overlay.builder.RankedRow`, the rule
    :func:`~repro.overlay.builder.build_preference_system` sorts by).
    Each event patches only the rows it touches — a leave deletes one
    key per neighbour (no metric call), a join or a move re-scores the
    peer's own row and one key per neighbour — and the compact instance
    is read off the rows, so no event re-scores the whole overlay.

    Purity contract: the metric is a pure function of the two peers'
    attributes, and a peer's attributes change only through this
    class's methods (:meth:`update_position`).  Under it a patched row
    equals a freshly scored one; mutating a :class:`Peer` behind the
    overlay's back breaks the rows, which the service's guard detects.

    Parameters
    ----------
    topology, peers, metric:
        As for :func:`repro.overlay.builder.build_preference_system`.
    backend:
        A name (or :class:`~repro.core.backend.Backend`) for
        :func:`~repro.core.backend.get_backend`.  ``"reference"``
        (default) rebuilds the eq.-9 weight table from scratch on every
        event; ``"fast"`` and ``"sharded"`` keep a :class:`WeightCache`
        (only dirty edges are rescaled per event) and run the
        array-backed :func:`~repro.core.fast.lic_matching_fast` for full
        rematches.  Matchings are identical either way — only the cost
        differs (see ``docs/performance.md``).
    """

    def __init__(
        self,
        topology: Topology,
        peers: list[Peer],
        metric: SuitabilityMetric | MetricAssignment,
        backend: "str | Backend" = "reference",
    ):
        be = get_backend(backend)
        self.backend = be.name
        self._wcache: WeightCache | None = WeightCache() if be.caches_weights else None
        # external ids whose preference lists changed since the cache
        # was last refreshed (covers repair=False events)
        self._weight_dirty: set[int] = set()
        self.metric = metric
        self._peers: dict[int, Peer] = {p.peer_id: p for p in peers}
        if len(self._peers) != len(peers):
            raise InvalidInstanceError("duplicate peer ids")
        self._adj: dict[int, set[int]] = {
            p.peer_id: set() for p in peers
        }
        for i, j in topology.edges():
            self._adj[peers[i].peer_id].add(peers[j].peer_id)
            self._adj[peers[j].peer_id].add(peers[i].peer_id)
        if topology.positions is not None:
            for i, p in enumerate(peers):
                p.position = topology.positions[i]
        # matching in external-id space
        self._partners: dict[int, set[int]] = {pid: set() for pid in self._peers}
        self._next_id = max(self._peers, default=-1) + 1
        self._rebuild_rows()
        self.full_rematch()

    # -- ranked rows ------------------------------------------------------

    def _score_row(self, pid: int) -> RankedRow:
        """``pid``'s row scored afresh from the metric (rows not consulted)."""
        peers = self._peers
        return ranked_row(
            peers[pid], [peers[q] for q in self._adj[pid]], scorer(self.metric)
        )

    def _rebuild_rows(self) -> None:
        """Score every row from peers, adjacency and metric."""
        self._rows: dict[int, RankedRow] = {
            pid: self._score_row(pid) for pid in self._peers
        }

    def _insert_key(self, owner: int, pid: int) -> None:
        """Score ``pid`` for ``owner`` and insert it into ``owner``'s row."""
        peers = self._peers
        self._rows[owner].insert(-scorer(self.metric)(peers[owner], peers[pid]), pid)

    # -- id space ---------------------------------------------------------

    def active_ids(self) -> list[int]:
        """Sorted external ids of active peers."""
        return sorted(self._peers)

    def _compact_instance(self) -> tuple[PreferenceSystem, list[int], dict[int, int]]:
        """The compact instance read off the maintained rows (no metric calls)."""
        ids = self.active_ids()
        index = {pid: k for k, pid in enumerate(ids)}
        rows = self._rows
        ps = PreferenceSystem(
            [[index[q] for q in rows[pid].ids] for pid in ids],
            [self._peers[pid].quota for pid in ids],
        )
        return ps, ids, index

    def _fresh_instance(self) -> tuple[PreferenceSystem, list[int], dict[int, int]]:
        """The compact instance scored from scratch, ignoring the rows.

        The independent authority the differential harness and the
        tests compare the maintained rows against.
        """
        ids = self.active_ids()
        index = {pid: k for k, pid in enumerate(ids)}
        topo_adj = [
            sorted(index[q] for q in self._adj[pid] if q in index) for pid in ids
        ]
        # pass the original peer objects: metrics and tie-breaks use the
        # stable external peer_id, so preferences survive compaction
        peers = [self._peers[pid] for pid in ids]
        ps = build_preference_system(
            Topology(topo_adj, None, "dynamic"), peers, self.metric
        )
        return ps, ids, index

    def _weights(
        self, ps: PreferenceSystem, ids: list[int]
    ) -> tuple[WeightTable, int, int]:
        """Eq.-9 weights for the compact instance; ``(wt, reused, recomputed)``.

        A backend that caches weights serves them from the
        :class:`WeightCache`, rescaling only edges incident to peers
        dirtied since the last refresh; the reference backend rebuilds
        from scratch.
        """
        if self._wcache is None:
            self._weight_dirty.clear()
            return get_backend(self.backend).build_weights(ps), 0, 0
        out = self._wcache.refresh(ps, ids, self._weight_dirty)
        self._weight_dirty.clear()
        return out

    def _compact(self) -> tuple[PreferenceSystem, WeightTable, list[int], dict[int, int]]:
        ps, ids, index = self._compact_instance()
        wt, _, _ = self._weights(ps, ids)
        return ps, wt, ids, index

    def _matching_compact(self, index: dict[int, int]) -> Matching:
        m = Matching(len(index))
        for pid, partners in self._partners.items():
            for q in partners:
                if pid < q:
                    m.add(index[pid], index[q])
        return m

    def _store_matching(self, matching: Matching, ids: list[int]) -> None:
        self._partners = {pid: set() for pid in self._peers}
        for a, b in matching.edges():
            self._partners[ids[a]].add(ids[b])
            self._partners[ids[b]].add(ids[a])

    # -- public views -------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of active peers."""
        return len(self._peers)

    def partners(self, peer_id: int) -> frozenset[int]:
        """Current matched partners of a peer (external ids)."""
        return frozenset(self._partners[peer_id])

    def instance(self) -> tuple[PreferenceSystem, Matching]:
        """Compact snapshot ``(instance, matching)`` for analysis."""
        ps, _, ids, index = self._compact()
        return ps, self._matching_compact(index)

    def total_satisfaction(self) -> float:
        """Current network-wide satisfaction (eq. 1)."""
        ps, matching = self.instance()
        return matching.total_satisfaction(ps)

    # -- maintenance ---------------------------------------------------------

    def full_rematch(self) -> None:
        """Recompute the matching from scratch (the baseline A3 compares to)."""
        ps, ids, _ = self._compact_instance()
        matching, wt = get_backend(self.backend).solve(ps)
        if self._wcache is not None:
            self._wcache.seed(wt, ids)
            self._weight_dirty.clear()
        self._store_matching(matching, ids)

    def leave(self, peer_id: int, repair: bool = True) -> RepairStats:
        """Remove a peer; incrementally repair unless ``repair=False``.

        The dirty region seeds with the leaver's former partners and all
        its overlay neighbours (whose preference-list lengths — hence
        eq.-9 weights — changed).  Patching the rows deletes one key per
        neighbour and scores nothing.
        """
        if peer_id not in self._peers:
            raise KeyError(f"unknown peer {peer_id}")
        neighbours = set(self._adj[peer_id])
        del self._peers[peer_id]
        del self._rows[peer_id]
        for q in neighbours:
            self._adj[q].discard(peer_id)
            self._rows[q].remove(peer_id)
        del self._adj[peer_id]
        for q in self._partners.pop(peer_id, set()):
            self._partners[q].discard(peer_id)
        # the neighbours' preference lists shrank: their eq.-9 weights are
        # stale even if this event is repaired later (repair=False)
        self._weight_dirty |= neighbours
        self._weight_dirty.discard(peer_id)
        if not self._peers:
            return RepairStats()
        if not repair:
            return RepairStats()
        return self._repair(dirty_external=neighbours)

    def join(
        self,
        peer: Peer,
        neighbours: Iterable[int],
        repair: bool = True,
    ) -> tuple[int, RepairStats]:
        """Add a peer knowing ``neighbours``; returns ``(peer_id, stats)``.

        Scores the joiner's row and inserts one key into each
        neighbour's row (about two metric calls per neighbour).
        """
        pid = self._next_id
        self._next_id += 1
        peer.peer_id = pid
        neigh = set(neighbours)
        unknown = neigh - set(self._peers)
        if unknown:
            raise KeyError(f"unknown neighbours {sorted(unknown)}")
        self._peers[pid] = peer
        self._adj[pid] = set(neigh)
        for q in neigh:
            self._adj[q].add(pid)
            self._insert_key(q, pid)
        self._rows[pid] = self._score_row(pid)
        self._partners[pid] = set()
        # the joiner and its neighbours gained a list entry
        self._weight_dirty |= neigh
        self._weight_dirty.add(pid)
        if not repair:
            return pid, RepairStats()
        return pid, self._repair(dirty_external=neigh | {pid})

    def update_position(
        self, peer_id: int, position, repair: bool = True
    ) -> RepairStats:
        """Move a peer; its whole neighbourhood re-ranks.

        A position change re-scores ``peer_id`` in every neighbour's
        list, which can shift the ranks of the neighbours' *other*
        candidates too — so every edge incident to ``{peer_id} ∪
        N(peer_id)`` is weight-dirty, not just the moved peer's own.
        The mover's row is re-scored and its key in each neighbour's row
        re-scored and re-inserted (about two metric calls per neighbour).
        """
        if peer_id not in self._peers:
            raise KeyError(f"unknown peer {peer_id}")
        self._peers[peer_id].position = np.asarray(position, dtype=float)
        neighbours = self._adj[peer_id]
        self._rows[peer_id] = self._score_row(peer_id)
        for q in neighbours:
            self._rows[q].remove(peer_id)
            self._insert_key(q, peer_id)
        dirty = {peer_id} | neighbours
        self._weight_dirty |= dirty
        if not repair:
            return RepairStats()
        return self._repair(dirty_external=dirty)

    def _repair(self, dirty_external: set[int]) -> RepairStats:
        # A churn event changes the preference-list lengths of the nodes
        # in `dirty_external`, which rescales *all* their eq.-9 edge
        # weights.  An edge (y, z) can change blocking status whenever y
        # or z has a (possibly matched) edge whose weight changed, so
        # the seed must include one hop of neighbours around the changed
        # nodes; the repair wave extends it further as it drops partners.
        expanded = set(dirty_external)
        for pid in dirty_external:
            expanded.update(self._adj.get(pid, ()))
        ps, ids, index = self._compact_instance()
        wt, reused, recomputed = self._weights(ps, ids)
        dirty_external = expanded
        matching = self._matching_compact(index)
        dirty = {index[pid] for pid in dirty_external if pid in index}
        stats = greedy_repair(wt, list(ps.quotas), matching, dirty)
        stats.weights_reused = reused
        stats.weights_recomputed = recomputed
        matching.validate(ps)
        self._store_matching(matching, ids)
        return stats
