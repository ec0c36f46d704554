"""LID — Local Information-based Distributed algorithm (Algorithm 1).

Every node ``i`` keeps four sets over its neighbourhood:

- ``U_i`` — unresolved neighbours (no final answer exchanged yet),
- ``P_i`` — neighbours ``i`` has proposed to (outstanding or locked),
- ``A_i`` — neighbours that proposed to ``i`` (approachers),
- ``K_i`` — locked (matched) neighbours,

and a *weight list*: its neighbours ordered by decreasing edge key
(eq. 9 weights, ties broken by node ids).  The protocol:

1. Propose (``PROP``) to the top ``b_i`` entries of the weight list.
2. A mutual proposal locks the edge at both endpoints (no extra message
   is needed — each endpoint observes the other's ``PROP``).
3. On receiving a rejection (``REJ``) for an outstanding proposal,
   propose to the next unproposed neighbour in weight order.
4. When no proposals are outstanding (``P_i \\ K_i = ∅`` — quota filled
   or candidates exhausted), send ``REJ`` to every remaining neighbour
   in ``U_i`` and terminate.

Lemma 5 (symmetric weights ⇒ no communication cycles) guarantees
termination; Lemmas 3–4 show the locked edges are exactly the locally
heaviest ones, i.e. the LIC edge set, giving the ½ weighted-matching
ratio (Theorem 2) and the ¼(1+1/b_max) satisfaction ratio (Theorem 3).

Implementation notes
--------------------
- The sets and every decision live in :class:`LidCore`, the one copy
  of the rule for the simulated nodes: :class:`LidNode` (raw channels)
  and :class:`~repro.core.resilient_lid.ResilientLidNode` (reliable
  channels) only plug in how a message is sent and what happens when a
  peer answers.  The array engines' counterpart is the single wave
  kernel of :mod:`repro.core.sharded_lid`.
- Steps 1 and 3 are implemented by a single ``_top_up`` routine ("while
  ``|P_i| < b_i`` and an unproposed unresolved neighbour exists,
  propose to the best one").  After a rejection of an outstanding
  proposal this sends exactly one new ``PROP``; in all other states it
  sends none — precisely the paper's "a new PROP message is sent only
  if a previously asked node has explicitly declined".
- A terminated node has left its receive loop; the simulator discards
  messages addressed to it.  The analysis in §5 shows any such message
  crossed the terminating node's final ``REJ`` broadcast, so the sender
  learns the outcome regardless.  (The scheduler still counts these as
  ``late_messages`` so tests can assert how often it happens.)
- For the lossy-channel extension (A2, paper §7 future work) the node
  supports *polite* termination plus timer-based ``PROP``
  retransmission; see :class:`LidNode` parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.core.matching import Matching
from repro.core.preferences import PreferenceSystem
from repro.core.truncation import (
    TruncationReport,
    finalize_truncation,
    validate_max_rounds,
)
from repro.core.weights import WeightTable
from repro.distsim.metrics import SimMetrics
from repro.distsim.network import LatencyModel, Network
from repro.distsim.node import ProtocolNode
from repro.distsim.scheduler import Simulator
from repro.distsim.tracing import Trace
from repro.telemetry.spans import Telemetry
from repro.utils.validation import ProtocolError, check_quotas

if TYPE_CHECKING:
    from repro.core.backend import Backend

__all__ = [
    "LidCore",
    "LidNode",
    "LidResult",
    "converged_matching",
    "mutual_locks",
    "run_lid",
    "solve_lid",
]

PROP = "PROP"
REJ = "REJ"


class LidCore:
    """Algorithm 1's per-node state and decision rule, transport-agnostic.

    Holds the paper's four sets over the neighbourhood plus the
    weight-list scan position, and implements every decision: lock
    mutual proposals, top up to ``b_i`` down the weight list, and
    broadcast ``REJ`` once nothing is outstanding.  Concrete nodes
    (:class:`LidNode` on raw channels,
    :class:`~repro.core.resilient_lid.ResilientLidNode` on reliable
    ones) mix it in ahead of their transport base class and supply two
    hooks:

    - :meth:`_send` — transmit one protocol message (and arm whatever
      the transport needs for a ``PROP``: a retransmit timer, or a
      liveness watch);
    - :meth:`_answered` — peer ``j`` answered (locked or rejected); the
      resilient node stops watching it.

    After finishing, a node with ``polite = False`` hard-terminates;
    polite nodes stay up to answer stray proposals.
    """

    polite = False

    def _init_lid(self, weight_list: Sequence[int], quota: int) -> None:
        self.weight_list: list[int] = list(weight_list)
        self.quota = int(quota)
        # protocol sets (paper names)
        self.unresolved: set[int] = set()   # U_i
        self.proposed: set[int] = set()     # P_i
        self.approachers: set[int] = set()  # A_i
        self.locked: set[int] = set()       # K_i
        self._pos = 0  # weight-list scan position (next unproposed candidate)
        self.finished = False
        # statistics
        self.props_sent = 0
        self.rejs_sent = 0
        self.anomalies = 0

    # -- hooks -----------------------------------------------------------

    def _send(self, j: int, kind: str) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _answered(self, j: int) -> None:
        """Peer ``j`` locked or rejected (default: nothing to do)."""

    # -- protocol --------------------------------------------------------

    def on_start(self) -> None:
        self.unresolved = set(self.weight_list)
        self._process()

    def _on_prop(self, src: int) -> None:
        """A fresh ``PROP`` from an unlocked neighbour."""
        if self.finished:
            # polite mode: we already rejected everyone; answer the
            # (necessarily stray) proposal again
            self._reject(src)
            return
        self.approachers.add(src)
        self._process()

    def _on_rej(self, src: int) -> None:
        """A ``REJ`` from an unlocked neighbour."""
        if src not in self.unresolved:
            self.anomalies += 1  # duplicate REJ
            return
        self._forget(src)
        self._answered(src)
        self._process()

    def _forget(self, j: int) -> None:
        """Drop ``j`` from ``U_i`` / ``P_i`` / ``A_i``."""
        self.unresolved.discard(j)
        self.proposed.discard(j)
        self.approachers.discard(j)

    def _reject(self, j: int) -> None:
        self._send(j, REJ)
        self.rejs_sent += 1

    def _outstanding(self) -> set[int]:
        """``P_i \\ K_i`` — proposals awaiting an answer."""
        return self.proposed - self.locked

    def _propose(self, j: int) -> None:
        self.proposed.add(j)
        self._send(j, PROP)
        self.props_sent += 1

    def _top_up(self) -> bool:
        """Propose to best unproposed unresolved neighbours up to quota."""
        sent = False
        while len(self.proposed) < self.quota:
            j = self._next_candidate()
            if j is None:
                break
            self._propose(j)
            sent = True
        return sent

    def _next_candidate(self) -> Optional[int]:
        while self._pos < len(self.weight_list):
            j = self.weight_list[self._pos]
            self._pos += 1
            if j in self.unresolved and j not in self.proposed:
                return j
        return None

    def _try_lock(self) -> bool:
        """Lock every mutually proposed edge (lines 12–14)."""
        ready = self._outstanding() & self.approachers
        for v in ready:
            self.locked.add(v)
            self.approachers.discard(v)
            self.unresolved.discard(v)
            self._answered(v)
        return bool(ready)

    def _process(self) -> None:
        if self.finished:
            return
        changed = True
        while changed:
            changed = self._try_lock()
            changed = self._top_up() or changed
        if not self._outstanding():
            self._finish()

    def _finish(self) -> None:
        """Lines 15–16: reject all unresolved neighbours and stop.

        The broadcast walks the weight list (not the ``unresolved`` set)
        so the send order is a deterministic function of the instance
        rather than of hash-table internals; schedules — and therefore
        message statistics — stay reproducible across interpreters, and
        the round-batched engine can replay them exactly.
        """
        self.finished = True
        for v in self.weight_list:
            if v in self.unresolved:
                self._reject(v)
        self.unresolved.clear()
        self.approachers.clear()
        if not self.polite:
            self.terminate()


class LidNode(LidCore, ProtocolNode):
    """One LID participant on the simulator's raw channels.

    Parameters
    ----------
    weight_list:
        Neighbours in strictly decreasing edge-key order (node ``i``'s
        auxiliary *weight list*; see :meth:`WeightTable.weight_list`).
    quota:
        Connection quota ``b_i``.
    polite:
        When ``True`` the node does not hard-terminate: after finishing
        it keeps answering stray ``PROP`` messages with ``REJ``.  This
        is the behaviour required for the retransmission extension under
        message loss; the faithful Algorithm 1 uses ``polite=False``.
    retransmit_timeout:
        When set (virtual time units), outstanding proposals are
        re-sent until answered — the minimal reliability wrapper
        evaluated in experiment A2.  This is the *base* retry delay;
        the schedule is governed by ``backoff``.
    backoff:
        Retry schedule: ``"exponential"`` (default) doubles the delay
        per unanswered retry up to ``backoff_cap``, with up to 10%
        deterministic jitter when ``retransmit_rng`` is given;
        ``"none"`` is the legacy fixed-timer behaviour (every retry
        after exactly ``retransmit_timeout``).
    backoff_cap:
        Upper bound of the exponential delay (default
        ``8 * retransmit_timeout``).
    retransmit_rng:
        Seeded generator for retry jitter (``None`` = no jitter).
        :func:`run_lid` spawns one per node off the run seed.

    Retransmissions are counted in :attr:`retransmits_sent` (and in
    :attr:`SimMetrics.retransmissions`), *separately* from the fresh
    proposals in :attr:`props_sent`, so reliability overhead never
    contaminates the paper's message-complexity statistics.
    """

    def __init__(
        self,
        weight_list: Sequence[int],
        quota: int,
        polite: bool = False,
        retransmit_timeout: Optional[float] = None,
        backoff: str = "exponential",
        backoff_cap: Optional[float] = None,
        retransmit_rng=None,
    ):
        super().__init__()
        self._init_lid(weight_list, quota)
        self.polite = polite
        self.retransmit_timeout = retransmit_timeout
        if backoff not in ("none", "exponential"):
            raise ValueError(
                f"backoff must be 'none' or 'exponential', got {backoff!r}"
            )
        self.backoff = backoff
        if backoff_cap is not None and retransmit_timeout is not None:
            if backoff_cap < retransmit_timeout:
                raise ValueError(
                    f"backoff_cap ({backoff_cap}) below retransmit_timeout "
                    f"({retransmit_timeout})"
                )
        self.backoff_cap = backoff_cap
        self._retx_rng = retransmit_rng
        self._attempts: dict[int, int] = {}  # per-peer unanswered retries
        self.retransmits_sent = 0

    # -- transport ---------------------------------------------------------

    def _send(self, j: int, kind: str) -> None:
        self.send(j, kind)
        if kind == PROP and self.retransmit_timeout is not None:
            self.set_timer(self._retx_delay(j), j)

    def on_message(self, src: int, kind: str, payload) -> None:
        if kind == PROP:
            if src in self.locked:
                # duplicate of an already-locked proposal.  A *retry*
                # duplicate (timer retransmission) means the sender never
                # saw our PROP — our lock confirmation was lost — so we
                # re-send it.  Plain duplicates (stale retransmits
                # overtaken by the lock) are ignored, which breaks the
                # would-be PROP ping-pong between locked partners.  In
                # the faithful reliable-channel protocol neither case
                # can happen except from Byzantine peers.
                if self.retransmit_timeout is not None and payload == "retry":
                    self.send(src, PROP)
                    self._count_retransmit()
                else:
                    self.anomalies += 1
                return
            self._on_prop(src)
        elif kind == REJ:
            if src in self.locked:
                # a locked partner never rejects (only Byzantine peers do)
                self.anomalies += 1
                return
            self._on_rej(src)
        else:  # pragma: no cover - defensive
            raise ProtocolError(f"LID node got unknown message kind {kind!r}")

    def on_timer(self, tag) -> None:
        # retransmission: tag is the neighbour the proposal went to
        if self.finished:
            return
        j = tag
        if j in self.proposed and j not in self.locked:
            self.send(j, PROP, payload="retry")
            self._count_retransmit()
            assert self.retransmit_timeout is not None
            self._attempts[j] = self._attempts.get(j, 0) + 1
            self.set_timer(self._retx_delay(j), j)

    def _count_retransmit(self) -> None:
        self.retransmits_sent += 1
        if self.sim is not None:
            self.sim.metrics.retransmissions += 1

    def _retx_delay(self, j: int) -> float:
        """Delay until the next retry of the proposal to ``j``."""
        base = self.retransmit_timeout
        assert base is not None
        if self.backoff == "none":
            return base
        cap = self.backoff_cap if self.backoff_cap is not None else 8.0 * base
        d = min(base * 2.0 ** self._attempts.get(j, 0), cap)
        if self._retx_rng is not None:
            d *= 1.0 + 0.1 * float(self._retx_rng.random())
        return d


@dataclass
class LidResult:
    """Outcome of a distributed LID run.

    Attributes
    ----------
    matching:
        The locked edge set (validated symmetric before construction).
    metrics:
        Simulator accounting (message counts, virtual end time, events).
    nodes:
        The node objects, exposing per-node statistics.
    late_messages:
        Deliveries discarded because the receiver had terminated.
    truncation:
        The shared :class:`~repro.core.truncation.TruncationReport`
        (structural fields; ``solve_lid`` fills the quality fields for
        truncated runs).
    """

    matching: Matching
    metrics: SimMetrics
    nodes: list[LidNode]
    late_messages: int
    truncation: Optional[TruncationReport] = None

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
        """Virtual quiescence time (asynchronous rounds under unit latency)."""
        return self.metrics.end_time

    @property
    def causal_rounds(self) -> int:
        """Longest causal message chain — exact asynchronous round count,
        independent of the latency model."""
        return self.metrics.max_depth


def mutual_locks(nodes, among=None) -> tuple[Matching, list[tuple[int, int]]]:
    """The matching of mutual locks, plus every one-sided lock ``(i, j)``.

    Reads ``nodes[i].locked`` for ``i`` in ``among`` (default: every
    node).  A lock ``i → j`` is mutual when ``j`` is in ``among`` too
    and locked ``i`` back; any other lock is one-sided — in a truncated
    run the partner's confirming ``PROP`` was still in flight at the
    round cap, so the lock is released (the paper's unresolved state
    resolves to "no edge"), matching the array engines' ``lk & lk[rev]``
    extraction.  Converged callers use :func:`converged_matching`.
    """
    ids = range(len(nodes)) if among is None else sorted(among)
    members = set(ids)
    matching = Matching(len(nodes))
    one_sided = []
    for i in ids:
        for j in nodes[i].locked:
            if j in members and i in nodes[j].locked:
                if i < j:
                    matching.add(i, j)
            else:
                one_sided.append((i, j))
    return matching, one_sided


def converged_matching(nodes, among=None) -> Matching:
    """:func:`mutual_locks` of a quiescent run, which has no one-sided lock.

    Raises :class:`~repro.utils.validation.ProtocolError` on one.
    """
    matching, one_sided = mutual_locks(nodes, among)
    if one_sided:
        i, j = one_sided[0]
        raise ProtocolError(f"asymmetric lock: {i} locked {j} but not vice versa")
    return matching


def run_lid(
    wt: WeightTable,
    quotas: Sequence[int],
    latency: Optional[LatencyModel] = None,
    fifo: bool = True,
    seed: int = 0,
    trace: Optional[Trace] = None,
    drop_filter=None,
    retransmit_timeout: Optional[float] = None,
    backoff: str = "exponential",
    enforce_links: bool = True,
    max_events: Optional[int] = None,
    max_rounds: Optional[int] = None,
    telemetry=None,
    probe=None,
) -> LidResult:
    """Execute LID over a weight table on the discrete-event simulator.

    Parameters mirror the simulator substrate; the defaults give the
    faithful Algorithm 1 over reliable FIFO unit-latency channels.  Any
    latency model / FIFO setting yields the *same* matching (the LIC edge
    set) — a consequence of Lemmas 3–6 that the test suite checks
    property-style.

    With ``retransmit_timeout`` set, retries follow a capped
    exponential ``backoff`` schedule with per-node seeded jitter
    (``backoff="none"`` restores the legacy fixed timer); see
    :class:`LidNode`.

    ``max_rounds=k`` truncates the run after ``k`` delivery waves
    (``Simulator.run(max_time=k + 0.5)`` — under the default
    unit-latency channels wave ``r``'s deliveries land at virtual time
    ``r``, shifted by at most a few ULPs of FIFO tie-break skew, so the
    horizon sits at the midpoint of the inter-wave gap): no new
    proposal wave is scheduled past the cap, the in-flight wave is
    dropped, and one-sided locks are released at extraction, keeping
    only the mutual ones (see :mod:`repro.core.truncation`).  ``None``
    runs to convergence, byte-identical to before the knob existed.

    ``telemetry`` is a :class:`repro.telemetry.Telemetry` (or
    :data:`~repro.telemetry.NULL` to disable timing entirely); when
    omitted a private instance still populates
    ``metrics.phase_seconds`` with the ``build_weights`` / ``sim_loop``
    / ``extract`` phases.  ``probe`` is an optional
    :class:`~repro.telemetry.probes.ConvergenceProbe`; see
    :meth:`Simulator.run` for the tick convention (sampling never
    perturbs the run).

    Returns
    -------
    LidResult
        Matching plus message/time accounting.
    """
    from repro.utils.rng import spawn_rng

    n = wt.n
    quotas = check_quotas(quotas, n)
    max_rounds = validate_max_rounds(max_rounds)
    polite = retransmit_timeout is not None
    tel = telemetry if telemetry is not None else Telemetry()
    mark = tel.mark()
    with tel.span("build_weights"):
        nodes = [
            LidNode(
                wt.weight_list(i),
                quotas[i],
                polite=polite,
                retransmit_timeout=retransmit_timeout,
                backoff=backoff,
                retransmit_rng=(
                    spawn_rng(seed, "lid-retransmit", str(i))
                    if retransmit_timeout is not None and backoff != "none"
                    else None
                ),
            )
            for i in range(n)
        ]
        network = Network(
            n,
            latency=latency,
            fifo=fifo,
            links=wt.edges() if enforce_links else None,
            drop_filter=drop_filter,
            seed=seed,
        )
        sim = Simulator(network, nodes, trace=trace)
    with tel.span("sim_loop"):
        metrics = sim.run(
            max_events=max_events,
            max_time=max_rounds + 0.5 if max_rounds is not None else None,
            probe=probe,
        )
    with tel.span("extract"):
        released = 0
        if max_rounds is None:
            for i, node in enumerate(nodes):
                if not node.finished:
                    raise ProtocolError(
                        f"node {i} did not finish (Lemma 5 violated?)"
                    )
            matching = converged_matching(nodes)
        else:
            matching, one_sided = mutual_locks(nodes)
            released = len(one_sided)
    metrics.phase_seconds = tel.phase_seconds(since=mark)
    return LidResult(
        matching=matching,
        metrics=metrics,
        nodes=nodes,
        late_messages=sim.late_messages,
        truncation=TruncationReport(
            max_rounds=max_rounds,
            rounds=int(metrics.end_time),
            converged=(sim.pending_events() == 0),
            released_locks=released,
        ),
    )


def solve_lid(
    ps: PreferenceSystem,
    latency: Optional[LatencyModel] = None,
    fifo: bool = True,
    seed: int = 0,
    trace: Optional[Trace] = None,
    backend: "str | Backend" = "reference",
    drop_filter=None,
    retransmit_timeout: Optional[float] = None,
    max_rounds: Optional[int] = None,
    telemetry=None,
    probe=None,
) -> tuple[LidResult, WeightTable]:
    """End-to-end LID pipeline for a preference system.

    Builds the eq.-9 weights, runs LID, validates the result against the
    instance, and returns ``(result, weight_table)``.  By Theorem 3 the
    matching's full satisfaction is a ¼(1+1/b_max)-approximation of the
    maximising-satisfaction b-matching optimum.

    ``backend`` is a name or a :class:`~repro.core.backend.Backend`
    (see :func:`~repro.core.backend.get_backend`).  ``"fast"`` replays
    the default channel model (reliable FIFO unit latency — the faithful
    Algorithm 1 schedule) through the round-batched
    :func:`repro.core.fast_lid.lid_matching_fast` engine, returning a
    bit-identical matching and message statistics at a fraction of the
    cost; ``"sharded"`` runs the same schedule through the partitioned
    engine of :mod:`repro.core.sharded_lid` — the identical matching
    for any shard count.  Pass
    ``backend=ShardedBackend(shards=…, workers=…, jit=…)`` to configure
    it (``multiprocessing`` workers, optional numba with graceful
    fallback).  Both array backends reject a custom ``latency`` /
    ``trace`` / non-FIFO configuration **and any fault-injected run**
    (``drop_filter`` / ``retransmit_timeout``) with a
    :class:`ValueError` naming the fallback, ``backend="reference"`` —
    the event-by-event simulator, which executes them faithfully (the
    fallback is tested end-to-end in ``tests/core/test_backend.py``).
    Array results mirror :class:`LidResult` except that per-node
    statistics live in ``props_sent`` / ``rejs_sent`` arrays rather than
    node objects.

    ``max_rounds=k`` runs the round-truncated almost-stable variant on
    whichever backend is selected — the identical feasible partial
    matching on all of them — and fills the quality fields of
    ``result.truncation`` (blocking-pair count, satisfaction ratio vs
    the converged LIC matching); see :mod:`repro.core.truncation`.
    The report's wall time joins ``result.metrics.phase_seconds`` as
    ``truncation_report``; converged runs keep the engine's phase keys.
    """
    from repro.core.backend import get_backend

    be = get_backend(backend)
    inst, wt = be.lower(ps)
    result = be.lid(
        inst,
        ps.quotas,
        seed=seed,
        telemetry=telemetry,
        probe=probe,
        max_rounds=max_rounds,
        latency=latency,
        fifo=fifo,
        trace=trace,
        drop_filter=drop_filter,
        retransmit_timeout=retransmit_timeout,
    )
    result.matching.validate(ps)
    if max_rounds is not None:
        _report_truncation(result, *be.report_arrays(ps, inst, result), telemetry)
    return result, wt


def _report_truncation(result, fi, matched, telemetry) -> None:
    """Fill ``result.truncation``'s quality fields inside a ``truncation_report`` span."""
    tel = telemetry if telemetry is not None else Telemetry()
    mark = tel.mark()
    with tel.span("truncation_report"):
        result.truncation = finalize_truncation(result.truncation, fi, matched)
    result.metrics.phase_seconds.update(tel.phase_seconds(since=mark))
