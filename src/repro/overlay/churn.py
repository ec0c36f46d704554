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
from heapq import heappop, heappush
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.core.backend import Backend, get_backend
from repro.core.matching import Matching
from repro.core.preferences import PreferenceSystem
from repro.core.satisfaction import static_increase
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
from repro.utils.validation import (
    InvalidInstanceError,
    InvalidMatchingError,
    ProtocolError,
)

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
        Candidate-edge examinations the repair actually made: every
        edge at a dirty node once, then the edges at the (at most four)
        nodes each resolution changes — the work measure compared
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
    The cache exploits this: :meth:`refresh` recomputes only the edges
    at the declared weight-dirty peers, reading rank, list length and
    clamped quota off the overlay's ranked rows, and :meth:`drop`
    deletes a leaver's entries when it leaves.  A refresh therefore
    costs O(weight-dirty peers × degree), not O(edges).

    Keys are canonical ``(min id, max id)`` pairs of stable external
    peer ids.  Recomputed values use the same scalar arithmetic as the
    reference (:func:`repro.core.satisfaction.static_increase`, lower
    id's term first, as :func:`~repro.core.weights.satisfaction_weights`
    adds them), and the bulk fill (:meth:`seed`) takes a backend's
    compact table — both bit-identical, so a cached table is
    indistinguishable from a fresh
    :func:`~repro.core.weights.satisfaction_weights` build.
    """

    __slots__ = ("_w",)

    def __init__(self) -> None:
        self._w: dict[tuple[int, int], float] = {}

    def __len__(self) -> int:
        return len(self._w)

    def clear(self) -> None:
        """Drop all cached weights (the next event bulk-fills)."""
        self._w.clear()

    def seed(self, wt: WeightTable, ids: list[int]) -> None:
        """Fill the cache from a compact weight table (``ids``: compact → external)."""
        self._w = _external_weights(wt, ids)

    def drop(self, peer_id: int, neighbours: Iterable[int]) -> None:
        """Delete the entries of ``peer_id``'s edges (it is leaving)."""
        w = self._w
        for q in neighbours:
            w.pop((peer_id, q) if peer_id < q else (q, peer_id), None)

    def refresh(
        self,
        rows: "dict[int, RankedRow]",
        peers: dict[int, Peer],
        weight_dirty: "set[int] | frozenset[int]",
    ) -> tuple[dict[tuple[int, int], float], int, int]:
        """Recompute the edges at weight-dirty peers.

        Returns ``(weights, reused, recomputed)``.

        ``weight_dirty`` holds the external ids whose preference lists
        may have changed since the previous refresh (departed ones are
        skipped); every edge touching a live one is recomputed from
        ``rows`` and ``peers``' quotas.  ``reused`` counts the live
        edges kept as they were.
        """
        w = self._w
        live = {p for p in weight_dirty if p in rows}
        recomputed = 0
        for p in live:
            ids = rows[p].ids
            ell = len(ids)
            b = min(peers[p].quota, ell)
            for rank, q in enumerate(ids):
                if q < p and q in live:
                    continue  # recomputed from q's side
                other = rows[q].ids
                ell_q = len(other)
                d_p = static_increase(rank, ell, b)
                d_q = static_increase(other.index(p), ell_q, min(peers[q].quota, ell_q))
                if p < q:
                    w[(p, q)] = d_p + d_q
                else:
                    w[(q, p)] = d_q + d_p
                recomputed += 1
        return w, len(w) - recomputed, recomputed


def _external_weights(wt: WeightTable, ids: list[int]) -> dict[tuple[int, int], float]:
    """A compact table's weights keyed by external ids (``ids`` is sorted)."""
    return {(ids[a], ids[b]): w for (a, b), w in wt.items()}


class _OverlayWeights:
    """An overlay's eq.-9 weight graph in external ids, for :func:`greedy_repair`.

    Neighbours are the overlay's adjacency sets and keys come from the
    external-id weight dict, so a repair reads the live state directly:
    no compaction, no adjacency rebuild.  Compaction is monotone (it
    sorts the ids), so the key ``(w, min id, max id)`` orders edges
    exactly as the compact :class:`~repro.core.weights.WeightTable`
    would.
    """

    __slots__ = ("_adj", "_w")

    def __init__(self, adj: dict[int, set[int]], weights: dict[tuple[int, int], float]):
        self._adj = adj
        self._w = weights

    @property
    def n(self) -> int:
        return len(self._adj)

    def has_node(self, v: int) -> bool:
        return v in self._adj

    def neighbors(self, v: int) -> set[int]:
        return self._adj[v]

    def key(self, i: int, j: int) -> tuple[float, int, int]:
        a, b = (i, j) if i < j else (j, i)
        return (self._w[(a, b)], a, b)

    def has_edge(self, i: int, j: int) -> bool:
        return ((i, j) if i < j else (j, i)) in self._w


class _ClampedQuotas:
    """Peers' eq.-9 quotas ``min(b_i, ℓ_i)``, read on demand.

    The compact instance clamps quotas to the list length the same way.
    """

    __slots__ = ("_peers", "_adj")

    def __init__(self, peers: dict[int, Peer], adj: dict[int, set[int]]):
        self._peers = peers
        self._adj = adj

    def __len__(self) -> int:
        return len(self._peers)

    def __getitem__(self, v: int) -> int:
        return min(self._peers[v].quota, len(self._adj[v]))


class _PartnerView:
    """An overlay's partner sets as :func:`greedy_repair`'s matching, edited in place.

    ``changed`` collects every peer whose partners the repair changed,
    so the caller re-checks exactly those.  :meth:`edges` lists the
    partnerships at the ``scope`` peers (the repair's seed region):
    a leave drops the leaver's partnerships itself and no other event
    removes an overlay edge, so that is the only place a stale one
    could sit.
    """

    __slots__ = ("_p", "_scope", "changed")

    def __init__(self, partners: dict[int, set[int]], scope: Iterable[int]):
        self._p = partners
        self._scope = scope
        self.changed: set[int] = set()

    @property
    def n(self) -> int:
        return len(self._p)

    def edges(self) -> list[tuple[int, int]]:
        p = self._p
        return sorted(
            {(a, b) if a < b else (b, a) for a in self._scope if a in p for b in p[a]}
        )

    def has_edge(self, i: int, j: int) -> bool:
        return j in self._p[i]

    def degree(self, i: int) -> int:
        return len(self._p[i])

    def connections(self, i: int) -> set[int]:
        return self._p[i]

    def add(self, i: int, j: int) -> None:
        self._p[i].add(j)
        self._p[j].add(i)
        self.changed.update((i, j))

    def remove(self, i: int, j: int) -> None:
        self._p[i].remove(j)
        self._p[j].remove(i)
        self.changed.update((i, j))


# floors that every key beats / that no key beats (keys are (w, a, b), w finite)
_WANTS_ANY = (float("-inf"),)
_WANTS_NONE = (float("inf"),)


def _check_compact(wt: WeightTable, quotas: Sequence[int], matching: Matching) -> None:
    """Eager structural checks of compact :func:`greedy_repair` inputs."""
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


def greedy_repair(
    wt: "WeightTable | _OverlayWeights",
    quotas: "Sequence[int] | _ClampedQuotas",
    matching: "Matching | _PartnerView",
    dirty: "set[int] | Iterable[int]",
    max_steps: int = 1_000_000,
    budget: Optional[int] = None,
) -> RepairStats:
    """Restore the no-weighted-blocking-edge fixpoint from a local change.

    Repeatedly takes the heaviest blocking edge incident to the dirty
    region and adds it (endpoints over quota drop their lightest
    partner, which joins the dirty region) until no blocking edge
    remains.  Mutates ``matching`` in place.

    The inputs are either compact — a
    :class:`~repro.core.weights.WeightTable`, per-node quotas and a
    :class:`~repro.core.matching.Matching` over ``0..n-1`` — or a
    :class:`DynamicOverlay`'s own external-id state (the private views
    this module builds over its adjacency, weight dict, clamped quotas
    and partner sets).

    Candidates live in a lazy max-heap keyed by :meth:`WeightTable.key`:
    every dirty node is scanned once, and after each resolution only the
    nodes whose partners changed (the two endpoints and the partners
    they dropped) are rescanned — an edge's blocking status depends on
    its endpoints' partner sets alone.  A popped entry is re-validated,
    so the edge taken at each step is exactly the heaviest blocking edge
    at the dirty region.

    Correctness: every edge whose blocking status may have changed is
    incident to a dirty node — initial dirtiness covers all nodes whose
    weights or adjacency changed, and each resolution dirties every node
    it touches.  Termination: weight keys are a strict total order, and
    each resolution strictly improves the lexicographic profile of both
    endpoints (standard acyclic-potential argument for globally ranked
    preferences).

    Robustness (the contract the long-lived service relies on):

    - Structural input mismatches — compact ``quotas`` or ``matching``
      sized for a different instance than ``wt``, or a negative quota —
      raise :class:`~repro.utils.validation.InvalidInstanceError`
      eagerly.
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
    if isinstance(wt, WeightTable):
        _check_compact(wt, quotas, matching)
    if budget is not None and budget < 0:
        raise InvalidInstanceError(f"repair budget must be >= 0, got {budget}")

    stats = RepairStats()
    dirty = {v for v in dirty if wt.has_node(v)}
    if wt.n == 0:
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
    # v holds no partner; floors[v]: the key an edge must beat for v to
    # want it.  Both are computed on demand and dropped whenever v's
    # partners change, so `wants` is one key comparison
    weakest: dict[int, Optional[tuple]] = {}
    floors: dict[int, tuple] = {}

    def lightest(v: int) -> Optional[tuple]:
        if v not in weakest:
            weakest[v] = min(
                ((wt.key(v, c), c) for c in matching.connections(v)), default=None
            )
        return weakest[v]

    def floor(v: int) -> tuple:
        f = floors.get(v)
        if f is None:
            if matching.degree(v) < quotas[v]:
                f = _WANTS_ANY  # room left: every edge is welcome
            else:
                held = lightest(v)
                f = _WANTS_NONE if held is None else held[0]
            floors[v] = f
        return f

    # max-heap of blocking candidates as negated keys (-w, -a, -b)
    heap: list[tuple[float, int, int]] = []

    key = wt.key

    def scan(v: int) -> None:
        neighbours = wt.neighbors(v)
        stats.edges_scanned += len(neighbours)
        fv = floor(v)
        for u in neighbours:
            k = key(v, u)
            if k > fv and k > floor(u) and not matching.has_edge(v, u):
                heappush(heap, (-k[0], -k[1], -k[2]))

    for v in dirty:
        scan(v)
    steps = 0
    while heap:
        w, i, j = heap[0]
        k, i, j = (-w, -i, -j), -i, -j
        if matching.has_edge(i, j) or not (k > floor(i) and k > floor(j)):
            heappop(heap)  # no longer blocking
            continue
        if budget is not None and stats.resolutions >= budget:
            # a blocking edge remains but the budget is spent: stop with
            # a feasible almost-stable matching instead of raising
            stats.truncated = True
            break
        heappop(heap)
        touched = [i, j]
        for v in (i, j):
            if matching.degree(v) >= quotas[v]:
                worst = lightest(v)[1]
                matching.remove(v, worst)
                touched.append(worst)
        matching.add(i, j)
        for v in touched:
            weakest.pop(v, None)
            floors.pop(v, None)
        dirty.update(touched)
        stats.resolutions += 1
        steps += 1
        if steps > max_steps:  # pragma: no cover - safety valve
            raise ProtocolError("repair did not converge; potential argument violated?")
        for v in dict.fromkeys(touched):
            scan(v)
    stats.dirty_nodes = len(dirty)
    return stats


class DynamicOverlay:
    """A churning overlay with an incrementally maintained greedy matching.

    Peers keep stable external ids, and every piece of per-peer state —
    adjacency, ranked rows, partner sets, the :class:`WeightCache` keys
    — is a dict keyed by them.  A churn event's repair runs on that
    state directly (:func:`greedy_repair` over external-id views), so it
    touches only the dirty region and its one-hop neighbourhood; only
    whole-instance consumers (a full re-solve, :meth:`instance`, the
    differential check, the cold fill of an empty cache) compact the
    live peers into ids ``0..n-1``.  The invariant after construction
    and after every churn event is::

        self.matching == LIC(current instance)   # checked in tests

    Besides the matching, the overlay keeps every active peer's ranked
    neighbour list as persistent state: a sorted row of ``(-score,
    peer_id)`` keys (:class:`~repro.overlay.builder.RankedRow`, the rule
    :func:`~repro.overlay.builder.build_preference_system` sorts by).
    Each event patches only the rows it touches — a leave deletes one
    key per neighbour (no metric call), a join or a move re-scores the
    peer's own row and one key per neighbour — and ranks, list lengths
    and the compact instance are read off the rows, so no event
    re-scores the whole overlay.

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
        (default) rebuilds the eq.-9 weight table from scratch (through
        the compact instance) on every event; ``"fast"`` and
        ``"sharded"`` keep a :class:`WeightCache` (only dirty edges are
        rescaled per event) and run the
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

    def _weights(self) -> tuple[dict[tuple[int, int], float], int, int]:
        """Current eq.-9 weights keyed by external ids.

        Returns ``(weights, reused, recomputed)``.

        A backend that caches weights serves them from the
        :class:`WeightCache`, recomputing only edges at peers dirtied
        since the last refresh; an empty cache is bulk-filled from the
        compact instance, which the reference backend rebuilds from on
        every event.
        """
        cache = self._wcache
        if cache is not None and len(cache):
            out = cache.refresh(self._rows, self._peers, self._weight_dirty)
        else:
            ps, ids, _ = self._compact_instance()
            wt = get_backend(self.backend).build_weights(ps)
            if cache is None:
                out = _external_weights(wt, ids), 0, 0
            else:
                cache.seed(wt, ids)
                out = cache._w, 0, len(cache)
        self._weight_dirty.clear()
        return out

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
        ps, _, index = self._compact_instance()
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
        if self._wcache is not None:
            self._wcache.drop(peer_id, neighbours)
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

    def _repair_inputs(self, dirty_external: Iterable[int]) -> tuple:
        """:func:`greedy_repair`'s external-id inputs for one event.

        Returns ``(wt, quotas, partners, dirty, reused, recomputed)``.
        A churn event changes the preference-list lengths of the peers
        in ``dirty_external``, which rescales *all* their eq.-9 edge
        weights.  An edge (y, z) can change blocking status whenever y
        or z has a (possibly matched) edge whose weight changed, so the
        seed includes one hop of neighbours around the changed peers;
        the repair wave extends it further as it drops partners.
        """
        dirty = set(dirty_external)
        for pid in dirty_external:
            dirty.update(self._adj.get(pid, ()))
        weights, reused, recomputed = self._weights()
        return (
            _OverlayWeights(self._adj, weights),
            _ClampedQuotas(self._peers, self._adj),
            _PartnerView(self._partners, dirty),
            dirty,
            reused,
            recomputed,
        )

    def _check_partners(self, peer_ids: Iterable[int]) -> None:
        """Capacity, neighbour and symmetry checks of ``peer_ids``' partner sets.

        The per-event form of :meth:`Matching.validate
        <repro.core.matching.Matching.validate>`, run on the peers whose
        partners a repair changed; raises the same
        :class:`~repro.utils.validation.InvalidMatchingError`.
        """
        partners, adj = self._partners, self._adj
        for v in peer_ids:
            mine = partners[v]
            quota = min(self._peers[v].quota, len(adj[v]))
            if len(mine) > quota:
                raise InvalidMatchingError(
                    f"peer {v} has {len(mine)} connections, quota {quota}"
                )
            for q in mine:
                if q not in adj[v]:
                    raise InvalidMatchingError(
                        f"matched edge ({v},{q}) is not a potential connection"
                    )
                if v not in partners[q]:
                    raise InvalidMatchingError(f"matched edge ({v},{q}) is asymmetric")

    def _repair(self, dirty_external: set[int]) -> RepairStats:
        wt, quotas, partners, dirty, reused, recomputed = self._repair_inputs(
            dirty_external
        )
        stats = greedy_repair(wt, quotas, partners, dirty)
        stats.weights_reused = reused
        stats.weights_recomputed = recomputed
        self._check_partners(partners.changed)
        return stats
