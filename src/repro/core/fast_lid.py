"""Round-batched fast LID engine (Algorithm 1 on flat arrays).

:func:`repro.core.lid.run_lid` executes the faithful Algorithm 1 one
``heapq`` event at a time through :class:`~repro.distsim.scheduler.Simulator`
— per message it pays a heap push/pop, a :class:`Message` allocation,
four ``Counter`` updates and a handler dispatch, which makes the LID
rows of experiments F2/F4/T4 the dominant wall-clock cost of the suite
beyond ``n ≈ 20k``.  This module is the array-backed replacement for the
protocol's *default* channel assumptions (reliable FIFO unit-latency
point-to-point links, no loss, no retransmission): the configuration
every headline experiment uses.

Why round batching is exact
---------------------------

Under unit constant latency every message sent at virtual time ``r``
is delivered at ``r + 1``, so the asynchronous execution collapses into
synchronous PROP/REJ *waves*: round ``r + 1`` delivers exactly the
messages sent during round ``r``.  Two facts make a wave loop replay the
reference event loop **bit-identically** rather than merely
equivalently:

1. *Receivers are independent within a round.*  A handler mutates only
   the receiving node's state and emits messages that are delivered next
   round, so processing round ``r``'s deliveries in any order that
   preserves each receiver's per-message subsequence reproduces every
   node's state transitions exactly.
2. *The reference delivery order is the send order.*  ``heapq`` orders
   events by ``(time, insertion counter)``; with all of round ``r``'s
   deliveries sharing one time, the counter — i.e. the order messages
   were sent in round ``r - 1`` — is the only ordering authority.  A
   two-list wave loop (process current round in order, append sends to
   the next round in handler order) therefore *is* the reference
   schedule.

Order genuinely matters: per-node ``props_sent``/``rejs_sent`` and the
``late_messages`` count are **not** invariants of arbitrary reordering.
Example: a node that processes a REJ and tops up toward neighbour ``k``
before processing ``k``'s same-round in-flight REJ sends a PROP the
opposite interleaving never sends.  (The *matching* is order-invariant
— Lemmas 3–6: the locked edges are exactly the locally heaviest ones,
the LIC edge set — but this engine reproduces the message statistics
too, so the differential suite can pin every observable.)

Implementation
--------------

The instance is lowered once to directed-slot arrays (the weight lists
of all nodes concatenated in CSR layout, each slot paired with its
reverse slot via the unique undirected-edge codes also used by
:class:`~repro.core.fast.FastInstance`).  A message is then a single
``int`` packing ``receiver << SH | receiver_slot << 1 | is_rej`` — no
:class:`Message` objects, no heap, and no table lookups on delivery.

- **Round 0** (the initial PROP burst, typically ~⅓ of all traffic) is
  fully vectorised: a NumPy mask proposes to the top ``min(b_i, deg_i)``
  weight-list entries of every node at once, and nodes with an empty
  effective quota terminate immediately with a bulk REJ fan-out.
- **Rounds ≥ 1** run the one wave kernel of
  :mod:`repro.core.sharded_lid`: per-slot ``U``/``P``/``A``/``K``
  membership is four flag bits in one state bytearray (one read + one
  write per transition), the per-node weight-list cursor a plain list,
  so one delivery costs a handful of list/bytearray index operations
  instead of the simulator's object machinery.
- Phase timers (``build_weights`` / ``sim_loop`` / ``extract``) are
  recorded in :attr:`SimMetrics.phase_seconds` so benchmarks can
  attribute time; see ``docs/performance.md``.

This engine *is* the sharded driver run with one in-process shard on
the pure-Python list layout (``jit=False``): round 0, the wave loop, the
probe sampler, the lock-symmetry checks and the metric assembly exist
once, in :func:`repro.core.sharded_lid.sharded_lid_matching`.  A
one-shard run skips the receiver split and the ``partition`` phase, so
it reports the same three phases as the reference engine.

Every observable of the returned :class:`FastLidResult` — matching,
per-node PROP/REJ counts, round counts, late messages, per-kind and
per-node metric counters — is pinned to the reference ``run_lid`` by
the differential suite in ``tests/core/test_fast_lid.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.fast import FastInstance
from repro.core.matching import Matching
from repro.core.preferences import PreferenceSystem
from repro.core.truncation import TruncationReport
from repro.core.weights import WeightTable
from repro.distsim.metrics import SimMetrics

__all__ = ["FastLidResult", "lid_matching_fast"]

PROP = "PROP"
REJ = "REJ"


@dataclass
class FastLidResult:
    """Outcome of a fast-engine LID run.

    Mirrors :class:`repro.core.lid.LidResult` field for field except that
    per-node statistics are arrays (``props_sent`` / ``rejs_sent``)
    instead of a list of node objects — the engine has no node objects.

    Attributes
    ----------
    matching:
        The locked edge set (symmetric by construction, checked).
    metrics:
        :class:`SimMetrics` with the same counters the simulator would
        have produced, plus ``phase_seconds``.
    props_sent, rejs_sent:
        ``int64[n]`` per-node message counts, bit-identical to the
        reference nodes' ``props_sent`` / ``rejs_sent``.
    late_messages:
        Deliveries discarded because the receiver had terminated.
    truncation:
        The shared :class:`~repro.core.truncation.TruncationReport`
        (structural fields only; quality fields are filled by
        ``solve_lid``).  Present for every run — ``max_rounds=None``
        runs report ``converged=True`` with zero released locks.
    matched_mask:
        Boolean ``[m]`` mask of the matched edges over the lowered
        instance's canonical edge arrays, set for round-capped runs
        (``max_rounds`` given; ``None`` otherwise).  ``solve_lid``'s
        truncation report reads it instead of re-deriving it from
        ``matching``.
    """

    matching: Matching
    metrics: SimMetrics
    props_sent: np.ndarray
    rejs_sent: np.ndarray
    late_messages: int
    truncation: Optional[TruncationReport] = None
    matched_mask: Optional[np.ndarray] = None

    @property
    def prop_messages(self) -> int:
        """Total ``PROP`` messages sent."""
        return self.metrics.sent_by_kind.get(PROP, 0)

    @property
    def rej_messages(self) -> int:
        """Total ``REJ`` messages sent."""
        return self.metrics.sent_by_kind.get(REJ, 0)

    @property
    def rounds(self) -> float:
        """Virtual quiescence time (synchronous rounds under unit latency)."""
        return self.metrics.end_time

    @property
    def causal_rounds(self) -> int:
        """Longest causal message chain — exact asynchronous round count."""
        return self.metrics.max_depth


def _directed_layout(fi: FastInstance):
    """CSR weight lists + reverse-slot pairing for all ``2m`` directed slots.

    Returns ``(start, nbr, rev, owner)`` where ``start`` is the ``n+1``
    offset array, ``nbr[s]`` the neighbour of slot ``s``, ``rev[s]`` the
    slot of the reverse direction and ``owner[s]`` the slot's node.  The
    slots of node ``v`` occupy ``start[v]:start[v+1]`` in *weight-list
    order*: strictly decreasing total-order key ``(w, min, max)``,
    identical to :meth:`WeightTable.weight_list`.
    """
    n, m = fi.n, fi.m
    if m == 0:
        z = np.zeros(0, dtype=np.int64)
        return np.zeros(n + 1, dtype=np.int64), z, z, z
    # The sort key (w, min, max) desc is an *edge* attribute — identical
    # for both directions — so rank the m edges once and order the 2m
    # directed entries by (owner, edge rank).  ``sorted_order`` IS that
    # edge ranking: the instance stores canonical ascending (i, j), so
    # its stable-argsort-reversed order equals descending (w, i, j) —
    # the exact ``WeightTable.weight_list`` key (and it is cached on the
    # instance for lower-once/solve-many callers).
    edge_order = fi.sorted_order()
    # Interleaving the two directed halves of each edge lists all 2m
    # entries in edge-rank order; a stable sort by owner then yields
    # within-owner rank-ascending slots.  Owner values fit int32, which
    # keeps the radix argsort ~3x cheaper than a 64-bit composite key.
    owner2 = np.concatenate([fi.i, fi.j])
    pre = np.empty(2 * m, dtype=np.int64)
    pre[0::2] = edge_order
    pre[1::2] = edge_order + m
    perm = pre[np.argsort(owner2[pre].astype(np.int32), kind="stable")]
    owner = owner2[perm]
    nbr = np.concatenate([fi.j, fi.i])[perm]
    deg = np.bincount(owner2, minlength=n)
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=start[1:])
    # pair each slot with its reverse direction through the inverse
    # permutation: directed entries d and d+m are the two halves of
    # edge d, so their sorted positions point at each other
    inv = np.empty(2 * m, dtype=np.int64)
    inv[perm] = np.arange(2 * m, dtype=np.int64)
    rev = np.empty(2 * m, dtype=np.int64)
    rev[inv[:m]] = inv[m:]
    rev[inv[m:]] = inv[:m]
    return start, nbr, rev, owner


def lid_matching_fast(
    src: "FastInstance | PreferenceSystem | WeightTable",
    quotas: Optional[Sequence[int]] = None,
    *,
    max_events: Optional[int] = None,
    max_rounds: Optional[int] = None,
    telemetry=None,
    probe=None,
) -> FastLidResult:
    """Execute LID as synchronous PROP/REJ waves over flat arrays.

    Bit-identical to ``run_lid(wt, quotas)`` with default channel
    parameters (reliable FIFO unit-latency, no loss, no trace): same
    matching, same per-node ``props_sent``/``rejs_sent``, same round and
    late-message counts, same metric counters.  Runs
    :func:`~repro.core.sharded_lid.sharded_lid_matching` with one
    in-process shard on the pure-Python layout, so the result is a
    :class:`~repro.core.sharded_lid.ShardedLidResult` with
    ``shards == 1``.

    Parameters
    ----------
    src:
        A :class:`FastInstance` (preferred — lower once, solve many), a
        :class:`PreferenceSystem`, or a :class:`WeightTable` (requires
        ``quotas``).
    quotas:
        Connection quotas ``b_i``; defaults to the source's own quotas.
        Explicit quotas must be non-negative integers (``ValueError``
        names the first offending node).
    max_events:
        Hang-detector budget counted over *processed* (non-late)
        deliveries, mirroring the simulator's documented default
        ``1000 + 500·n + 50·initial_burst``.  The faithful protocol
        sends at most two messages per directed edge, so the default is
        never reached; it exists to turn a protocol bug into an error
        instead of a hang.
    max_rounds:
        Round-truncated ("almost stable") mode: execute at most this
        many delivery waves, then stop, drop the in-flight wave, and
        extract only the mutual locks (one-sided locks are released —
        see :mod:`repro.core.truncation`).  ``None`` (the default) runs
        to convergence with byte-identical behaviour to before the knob
        existed; ``k`` at or beyond the convergence round is equivalent
        to ``None`` bit for bit.
    telemetry:
        Optional :class:`repro.telemetry.Telemetry`
        (:data:`~repro.telemetry.NULL` to disable timing); when omitted
        a private instance still fills ``metrics.phase_seconds``.
    probe:
        Optional :class:`~repro.telemetry.probes.ConvergenceProbe`.
        Sampled with the exact tick convention of ``Simulator.run`` —
        ticks are caught up against the next wave's delivery time plus
        one final sample at quiescence — so the trajectory is
        bit-identical to a probed reference run.  Sampling costs one
        ``O(m)`` NumPy scan per tick; the wave hot loop itself is
        untouched.
    """
    from repro.core.sharded_lid import sharded_lid_matching

    return sharded_lid_matching(
        src,
        quotas,
        shards=1,
        jit=False,
        max_events=max_events,
        max_rounds=max_rounds,
        telemetry=telemetry,
        probe=probe,
    )
