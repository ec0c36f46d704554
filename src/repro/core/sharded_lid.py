"""The array LID engine: one wave kernel, per-shard state, one driver.

Both array engines run here.  :func:`repro.core.fast_lid.lid_matching_fast`
is this module's driver with a single in-process shard on the
pure-Python state layout; :func:`sharded_lid_matching` is the scale-out
path of ROADMAP item 2: partition the lowered
:class:`~repro.core.fast.FastInstance` into ``k`` contiguous node
shards, run the *same* wave kernel per shard (optionally inside
``multiprocessing`` workers, optionally numba-compiled), and reconcile
the cut-edge traffic between rounds through an int-packed mailbox.

Why sharding is exact
---------------------

The locally-heaviest-edge rule is *local*: a node's transition on a
delivery depends only on its own slot state, and every message sent in
round ``r`` is delivered in round ``r + 1`` regardless of which shard
the receiver lives in.  A sharded wave therefore executes a legal
unit-latency synchronous schedule of the very same protocol — only the
*within-round* delivery order differs from the reference heap order.
By Lemmas 3–6 the locked edge set is invariant under any schedule (it
is exactly the LIC edge set), so the **matching is identical** to
``run_lid`` for every ``k``; per-node message *statistics* are
order-sensitive and may legitimately differ for ``k > 1``.  With
``k = 1`` the mailbox is the identity and the wave loop replays
``run_lid`` **bit-identically**, message statistics included (pinned in
``tests/core/test_fast_lid.py`` and ``tests/core/test_sharded_lid.py``).

Messages are single ints (``receiver << SH | receiver_slot << 1 |
is_rej``), so cross-shard delivery is an array split (``searchsorted``
over the shard bounds) plus a concatenate: no object hops, no
per-message routing table.  A lone shard skips the split entirely.

The wave kernel
---------------

:func:`_wave_kernel` is the whole transition rule of Algorithm 1 —
PROP/REJ delivery, mutual-proposal lock, top-up down the weight list,
``REJ`` fan-out on termination — written once.  Its body runs
unchanged on two state layouts: lists and bytearrays under CPython
(scalar list indexing is ~3x faster than scalar ndarray indexing) and
typed ndarrays under numba.  Only the layout differs between the
interpreted and compiled paths; the differential tests pin the two
layouts bit-identical without needing numba installed.

Execution substrates
--------------------

- ``workers=0`` (default) — all shards step in-process, one after the
  other.  Deterministic, zero IPC; what the grid runner and the
  conformance pipelines use.
- ``workers>0`` — shards live in persistent ``multiprocessing``
  workers (fork where available, else spawn); the driver broadcasts
  each round's inboxes and concatenates the returned outboxes.  The
  result is *identical* to the serial executor: parallelism only moves
  where the per-shard computation runs.
- ``jit`` — ``None`` ("auto") compiles the wave kernel with numba when
  it is importable (ndarray layout); ``True`` requests it (falling back
  with a warning when numba is absent — an optional dependency, see
  ``pyproject.toml``); ``False`` forces the pure-Python list layout.

Partitioning balances *directed slots* (work), not node counts: shard
boundaries are placed by ``searchsorted`` on the CSR offsets so each
shard owns ≈ ``2m / k`` slots.  See ``docs/performance.md`` for the
boundary-reconciliation cost model and when to prefer
``backend="fast"`` vs ``backend="sharded"``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional, Sequence

import numpy as np

from repro.core.fast import FastInstance, _coerce_instance
from repro.core.fast_lid import PROP, REJ, FastLidResult, _directed_layout
from repro.core.matching import Matching
from repro.core.preferences import PreferenceSystem
from repro.core.truncation import TruncationReport, validate_max_rounds
from repro.core.weights import WeightTable
from repro.distsim.metrics import SimMetrics
from repro.telemetry.probes import ProbeSample
from repro.telemetry.spans import Telemetry
from repro.utils.validation import ProtocolError, check_quotas

__all__ = [
    "NUMBA_AVAILABLE",
    "ShardedLidResult",
    "partition_nodes",
    "sharded_lid_matching",
    "warm_jit_kernels",
]

# one flag byte per directed slot: U membership, P membership,
# A (approached) and K (locked) — single read/write per transition
IN, PR, AP, LK = 1, 2, 4, 8
_INV_IN = 0xFF ^ IN

try:  # pragma: no cover - exercised only when numba is installed
    import numba as _numba  # noqa: F401

    NUMBA_AVAILABLE = True
except ImportError:
    NUMBA_AVAILABLE = False

_JIT_KERNEL = None


# ---------------------------------------------------------------------
# the wave kernel
# ---------------------------------------------------------------------


def _wave_kernel(
    inbox,
    st,
    finished,
    room,
    n_out,
    cursor,
    props,
    rejs,
    received,
    packed,
    end,
    out,
    node_lo,
    slot_lo,
    sh,
    rmask,
):
    """Deliver one wave to one shard (numba-compilable, plain-Python runnable).

    State is *local* to the shard (``st``/``packed``/``end`` indexed by
    ``global_slot - slot_lo``, per-node state by ``global_node -
    node_lo``); message codes stay global.  Emitted codes land in
    ``out``, preallocated to the shard's slot count: a slot sends at
    most one message over the whole run (a PROP when the cursor passes
    it, or a REJ in the fan-out beyond the cursor), so that bounds any
    wave.  Returns ``(emitted, late, delivered_prop, delivered_rej)``.
    """
    n_emit = 0
    late = 0
    dp = 0
    dr = 0
    for code in inbox:
        j = (code >> sh) - node_lo
        if finished[j] > 0:
            # receiver left its receive loop; the message crossed its
            # final REJ broadcast (see §5 termination analysis)
            late += 1
            continue
        r = ((code >> 1) & rmask) - slot_lo
        v = st[r]
        received[j] += 1
        if code & 1:  # REJ on slot r's edge
            dr += 1
            st[r] = v & _INV_IN
            if v & PR:
                room[j] += 1
                n_out[j] -= 1
        else:  # PROP on slot r's edge
            dp += 1
            if v & (PR | LK) == PR:
                # mutual proposal: lock without any extra message
                st[r] = (v | AP | LK) & _INV_IN
                n_out[j] -= 1
            else:
                st[r] = v | AP
        # top-up: propose to best unproposed unresolved neighbours while
        # below quota (steps 1/3 of Algorithm 1 — a single cursor sweep,
        # monotone across the whole run)
        rm = room[j]
        if rm > 0:
            p = cursor[j]
            end_j = end[j]
            while rm > 0 and p < end_j:
                v = st[p]
                if v & (IN | PR) == IN:
                    rm -= 1
                    n_out[j] += 1
                    props[j] += 1
                    out[n_emit] = packed[p]
                    n_emit += 1
                    if v & AP:
                        st[p] = (v | PR | LK) & _INV_IN
                        n_out[j] -= 1
                    else:
                        st[p] = v | PR
                p += 1
            cursor[j] = p
            room[j] = rm
        # termination: no outstanding proposals left (lines 15-16).  The
        # REJ fan-out scans from cursor[j]: every slot the cursor passed
        # is proposed or dead, and n_out == 0 means each proposal is
        # locked or rejected — either way IN is clear below the cursor.
        if n_out[j] == 0:
            finished[j] = 1
            sent = 0
            for t in range(cursor[j], end[j]):
                v = st[t]
                if v & IN:
                    st[t] = v & _INV_IN
                    sent += 1
                    out[n_emit] = packed[t] | 1
                    n_emit += 1
            rejs[j] += sent
    return n_emit, late, dp, dr


def _get_jit_kernel():
    """The numba-compiled wave kernel (compiled once per process)."""
    global _JIT_KERNEL
    if _JIT_KERNEL is None:
        from numba import njit

        _JIT_KERNEL = njit(cache=True)(_wave_kernel)
    return _JIT_KERNEL


def warm_jit_kernels() -> bool:
    """Compile the numba wave kernel now; ``False`` when numba is absent.

    Worker-pool initializers call this so compilation happens **once
    per worker process** instead of once per task (see
    :func:`repro.experiments.grid.run_grid`); it is spawn-safe (a plain
    module-level function with no arguments) and a cheap no-op without
    numba.
    """
    if not NUMBA_AVAILABLE:
        return False
    kernel = _get_jit_kernel()
    z8 = np.zeros(0, dtype=np.uint8)
    z = np.zeros(0, dtype=np.int64)
    kernel(z, z8, z8, z, z, z, z, z, z, z, z, z, 0, 0, 1, 1)
    return True


# ---------------------------------------------------------------------
# shard state
# ---------------------------------------------------------------------

# kernel argument order of the per-shard state
_STATE = (
    "st", "finished", "room", "n_out", "cursor",
    "props", "rejs", "received", "packed", "end",
)
_BYTE_STATE = ("st", "finished")


class _ShardCore:
    """One shard's protocol state in its kernel layout.

    Lives either in the driver process (serial executor) or inside a
    persistent ``multiprocessing`` worker; built from the picklable
    ``init`` payload of :func:`_shard_init` either way, so serial and
    parallel runs start from byte-identical state.  The ``"list"`` mode
    holds state in lists and bytearrays, ``"arrays"`` / ``"jit"`` in
    ndarrays; the kernel is the same function either way.
    """

    def __init__(self, init: dict):
        self.node_lo = int(init["node_lo"])
        self.node_hi = int(init["node_hi"])
        self.slot_lo = int(init["slot_lo"])
        self.sh = int(init["sh"])
        self.rmask = int(init["rmask"])
        self.bounds = init["bounds"]  # node boundaries of ALL shards
        self.owner_local = init["owner_local"]  # None unless probed
        self.as_list = init["kernel_mode"] == "list"
        self.wave_seconds = 0.0
        self.processed = 0
        self.late = 0
        n_slots = len(init["st"])
        if self.as_list:
            self.state = {
                k: bytearray(init[k]) if k in _BYTE_STATE else init[k].tolist()
                for k in _STATE
            }
            self._out = [0] * n_slots
            self._kernel = _wave_kernel
        else:
            self.state = {k: np.ascontiguousarray(init[k]) for k in _STATE}
            self._out = np.empty(n_slots, dtype=np.int64)
            self._kernel = (
                _get_jit_kernel()
                if init["kernel_mode"] == "jit"
                else _wave_kernel
            )
        self._args = tuple(self.state[k] for k in _STATE)

    # -- one synchronous round ----------------------------------------

    def wave(self, inbox):
        """Process this round's deliveries; split the sends per shard.

        Returns ``(outs, late, delivered_prop, delivered_rej)`` where
        ``outs[d]`` holds the codes destined for shard ``d`` in emit
        order — the concatenation the driver performs is the whole
        inter-shard reconciliation.  A lone shard keeps its own layout
        end to end: no split, no list/array conversion.
        """
        t0 = perf_counter()
        single = len(self.bounds) == 2
        if self.as_list and not single:
            inbox = inbox.tolist()
        n_emit, late, dp, dr = self._kernel(
            inbox, *self._args, self._out,
            self.node_lo, self.slot_lo, self.sh, self.rmask,
        )
        out = self._out[:n_emit]
        if single:
            outs = [out if self.as_list else out.copy()]
        else:
            out = np.asarray(out, dtype=np.int64)
            dest = np.searchsorted(self.bounds, out >> self.sh, side="right") - 1
            outs = [out[dest == d] for d in range(len(self.bounds) - 1)]
        self.processed += dp + dr
        self.late += late
        self.wave_seconds += perf_counter() - t0
        return outs, late, dp, dr

    # -- probe sampling ------------------------------------------------

    def sample(self) -> tuple[int, int, int, int, int, int]:
        """Deterministic aggregate state: the shard's probe contribution."""
        state = self.state
        lk_mask = (np.frombuffer(state["st"], dtype=np.uint8) & LK) != 0
        locks = int(np.count_nonzero(lk_mask))
        matched = 0
        if locks:
            matched = int(
                np.count_nonzero(
                    np.bincount(
                        self.owner_local[lk_mask],
                        minlength=self.node_hi - self.node_lo,
                    )
                )
            )
        return (
            locks,
            matched,
            int(np.count_nonzero(np.frombuffer(state["finished"], dtype=np.uint8))),
            int(sum(state["n_out"])),
            int(sum(state["props"])),
            int(sum(state["rejs"])),
        )

    # -- end of run ----------------------------------------------------

    def finalize(self) -> dict:
        """Final per-shard arrays + counters, for global reassembly."""
        state = self.state
        return {
            "st": np.frombuffer(state["st"], dtype=np.uint8),
            "finished": np.frombuffer(state["finished"], dtype=np.uint8),
            "props": np.asarray(state["props"], dtype=np.int64),
            "rejs": np.asarray(state["rejs"], dtype=np.int64),
            "received": np.asarray(state["received"], dtype=np.int64),
            "processed": self.processed,
            "late": self.late,
            "wave_seconds": self.wave_seconds,
        }


def _shard_init(
    s: int,
    bounds: np.ndarray,
    start: np.ndarray,
    owner: Optional[np.ndarray],
    state0: dict,
    sh: int,
    rmask: int,
    kernel_mode: str,
) -> dict:
    """The picklable state slice shard ``s`` starts from.

    ``state0`` holds the global post-round-0 arrays keyed as the kernel
    arguments; ``owner`` is only needed (and only sliced) when a probe
    samples matched-node counts.
    """
    nlo, nhi = int(bounds[s]), int(bounds[s + 1])
    slo, shi = int(start[nlo]), int(start[nhi])
    init = {
        k: state0[k][nlo:nhi] for k in ("finished", "room", "n_out", "props", "rejs")
    }
    init.update(
        node_lo=nlo,
        node_hi=nhi,
        slot_lo=slo,
        sh=sh,
        rmask=rmask,
        bounds=bounds,
        kernel_mode=kernel_mode,
        owner_local=None if owner is None else owner[slo:shi] - nlo,
        st=state0["st"][slo:shi],
        packed=state0["packed"][slo:shi],
        cursor=state0["cursor"][nlo:nhi] - slo,
        received=np.zeros(nhi - nlo, dtype=np.int64),
        end=start[nlo + 1 : nhi + 1] - slo,
    )
    return init


# ---------------------------------------------------------------------
# executors
# ---------------------------------------------------------------------


class _SerialExecutor:
    """All shards step in the driver process (deterministic default)."""

    def __init__(self, inits: Sequence[dict]):
        self.cores = [_ShardCore(init) for init in inits]

    def wave(self, inboxes):
        return [core.wave(inboxes[s]) for s, core in enumerate(self.cores)]

    def sample(self):
        return [core.sample() for core in self.cores]

    def finalize(self):
        return [core.finalize() for core in self.cores]

    def close(self):
        pass


def _worker_main(conn, inits: dict) -> None:
    """Persistent shard worker: build cores once, then serve waves.

    ``inits`` maps shard index -> init payload; building the cores here
    (not in the parent) is what makes numba compilation happen once per
    worker process, and keeps fork/spawn behaviour identical.
    """
    cores = {s: _ShardCore(init) for s, init in inits.items()}
    try:
        while True:
            msg = conn.recv()
            cmd = msg[0]
            if cmd == "wave":
                conn.send({s: cores[s].wave(inbox) for s, inbox in msg[1].items()})
            elif cmd == "sample":
                conn.send({s: core.sample() for s, core in cores.items()})
            elif cmd == "finalize":
                conn.send({s: core.finalize() for s, core in cores.items()})
            else:  # "stop"
                break
    except (EOFError, KeyboardInterrupt):  # pragma: no cover - teardown races
        pass
    finally:
        conn.close()


class _MPExecutor:
    """Shards distributed round-robin over persistent worker processes.

    Uses the ``fork`` start method where available (worker start is
    milliseconds and inherits the imported interpreter); ``spawn``
    elsewhere.  Every payload is a plain pickle over a ``Pipe`` — the
    compact int codes make a round's mailbox a few MB even at
    ``n = 10^6``.
    """

    def __init__(self, inits: Sequence[dict], workers: int):
        import multiprocessing as mp

        method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        ctx = mp.get_context(method)
        k = len(inits)
        workers = max(1, min(int(workers), k))
        self.assignment: list[list[int]] = [[] for _ in range(workers)]
        for s in range(k):
            self.assignment[s % workers].append(s)
        self.conns = []
        self.procs = []
        try:
            for w, shard_ids in enumerate(self.assignment):
                parent, child = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_main,
                    args=(child, {s: inits[s] for s in shard_ids}),
                    daemon=True,
                )
                proc.start()
                child.close()
                self.conns.append(parent)
                self.procs.append(proc)
        except Exception:
            self.close()
            raise
        self.k = k

    def _gather(self, messages) -> list:
        for conn, msg in zip(self.conns, messages):
            conn.send(msg)
        merged: dict[int, object] = {}
        for conn in self.conns:
            merged.update(conn.recv())
        return [merged[s] for s in range(self.k)]

    def wave(self, inboxes):
        return self._gather(
            [
                ("wave", {s: inboxes[s] for s in shard_ids})
                for shard_ids in self.assignment
            ]
        )

    def sample(self):
        return self._gather([("sample",)] * len(self.conns))

    def finalize(self):
        return self._gather([("finalize",)] * len(self.conns))

    def close(self):
        for conn in self.conns:
            try:
                conn.send(("stop",))
                conn.close()
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass
        for proc in self.procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()


# ---------------------------------------------------------------------
# partitioning
# ---------------------------------------------------------------------


def partition_nodes(start: np.ndarray, shards: int) -> np.ndarray:
    """Contiguous node boundaries balancing *directed slots* per shard.

    ``start`` is the ``n + 1`` CSR offset array of
    :func:`~repro.core.fast_lid._directed_layout`; the cut before shard
    ``s`` is placed at the first node whose cumulative slot count
    reaches ``s * 2m / k``, so every shard owns ≈ equal protocol work
    regardless of degree skew.  Contiguity keeps a shard's slots one
    array slice — no gather/scatter on the hot path — and makes
    receiver→shard routing a ``searchsorted`` over ``k + 1`` ints.

    Returns ``bounds`` with ``k + 1`` entries (``bounds[0] = 0``,
    ``bounds[k] = n``); empty shards are legal (``k > n``, or heavily
    skewed degree distributions).
    """
    n = len(start) - 1
    k = max(1, int(shards))
    total = int(start[-1])
    targets = (np.arange(1, k, dtype=np.int64) * total) // k
    cuts = np.searchsorted(start, targets, side="left")
    bounds = np.empty(k + 1, dtype=np.int64)
    bounds[0] = 0
    bounds[-1] = n
    bounds[1:-1] = np.clip(cuts, 0, n)
    np.maximum.accumulate(bounds, out=bounds)
    return bounds


# ---------------------------------------------------------------------
# result
# ---------------------------------------------------------------------


@dataclass
class ShardedLidResult(FastLidResult):
    """A :class:`~repro.core.fast_lid.FastLidResult` plus shard metadata.

    Attributes
    ----------
    shards:
        Number of shards the run was partitioned into.
    jit:
        Whether the numba-compiled kernel actually ran (``False`` under
        the graceful pure-Python fallback).
    cut_messages:
        Messages delivered across a shard boundary (0 for ``k = 1``) —
        the traffic the inter-shard mailbox reconciled.
    reconcile_seconds:
        Driver wall-clock spent splitting/concatenating mailboxes (the
        non-parallel fraction of the round loop).
    shard_stats:
        One dict per shard: ``shard`` / ``nodes`` / ``slots`` /
        ``processed`` / ``late`` / ``props_sent`` / ``rejs_sent`` /
        ``locks`` (all deterministic) plus ``wave_ms`` (wall-clock).
        The skew between shards' ``processed`` counts is what
        ``telemetry report --full`` surfaces via per-shard spans.
    """

    shards: int = 1
    jit: bool = False
    cut_messages: int = 0
    reconcile_seconds: float = 0.0
    shard_stats: list = field(default_factory=list)


# ---------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------


def _resolve_kernel_mode(jit: Optional[bool], _kernel: Optional[str]) -> str:
    if _kernel is not None:
        if _kernel not in ("list", "arrays", "jit"):
            raise ValueError(f"unknown kernel override {_kernel!r}")
        if _kernel == "jit" and not NUMBA_AVAILABLE:
            raise ValueError("kernel='jit' requires numba")
        return _kernel
    if jit is False:
        return "list"
    if jit is True and not NUMBA_AVAILABLE:
        warnings.warn(
            "jit=True requested but numba is not installed; falling back to"
            " the pure-Python shard kernel (pip install 'repro[jit]')",
            RuntimeWarning,
            stacklevel=3,
        )
        return "list"
    return "jit" if NUMBA_AVAILABLE else "list"


def _launch(
    k: int,
    workers: int,
    kernel_mode: str,
    start: np.ndarray,
    owner: np.ndarray,
    state0: dict,
    cur0: np.ndarray,
    sh: int,
    rmask: int,
    probe,
):
    """Partition, start the shard cores and split the round-0 burst.

    Returns ``(bounds, executor, inboxes)``.  A lone shard takes the
    burst whole in its own layout; only probed runs slice ``owner``.
    """
    bounds = partition_nodes(start, k)
    inits = [
        _shard_init(
            s, bounds, start, None if probe is None else owner, state0,
            sh, rmask, kernel_mode,
        )
        for s in range(k)
    ]
    if workers and k > 1:
        executor = _MPExecutor(inits, workers)
    else:
        executor = _SerialExecutor(inits)
    if k == 1:
        inboxes = [cur0.tolist() if kernel_mode == "list" else cur0]
    else:  # split by receiver shard (order-preserving)
        dest0 = np.searchsorted(bounds, cur0 >> sh, side="right") - 1
        inboxes = [cur0[dest0 == d] for d in range(k)]
    return bounds, executor, inboxes


def sharded_lid_matching(
    src: "FastInstance | PreferenceSystem | WeightTable",
    quotas: Optional[Sequence[int]] = None,
    *,
    shards: int = 4,
    workers: int = 0,
    jit: Optional[bool] = None,
    max_events: Optional[int] = None,
    max_rounds: Optional[int] = None,
    telemetry=None,
    probe=None,
    _kernel: Optional[str] = None,
) -> ShardedLidResult:
    """LID as per-shard synchronous waves with mailbox reconciliation.

    Produces the **identical matching** to ``run_lid`` for every shard
    count (the locked edge set is schedule-invariant, Lemmas 3–6) and is
    **bit-identical** to ``run_lid`` — message statistics included — for
    ``shards=1``, which is exactly how
    :func:`~repro.core.fast_lid.lid_matching_fast` runs it.
    Conformance-gated via the ``lid-sharded`` pipeline of
    :mod:`repro.testing.differential`.

    Parameters
    ----------
    src, quotas:
        As :func:`~repro.core.fast_lid.lid_matching_fast`.
    shards:
        Partition width ``k`` (clamped to ``[1, n]``).  The shard count
        — not the worker count — determines the execution schedule, so
        results are a deterministic function of ``(instance, shards)``.
    workers:
        ``0`` steps every shard in-process; ``> 0`` runs shards inside
        that many persistent ``multiprocessing`` workers (clamped to
        ``shards``), returning the identical result in parallel
        wall-time.
    jit:
        ``None`` auto-selects the numba kernel when importable;
        ``True`` requests it (graceful fallback + ``RuntimeWarning``
        when numba is missing); ``False`` forces the list layout.
    max_events:
        Hang-detector budget counted over *processed* (non-late)
        deliveries, mirroring the simulator's documented default
        ``1000 + 500·n + 50·initial_burst``.
    max_rounds:
        Round-truncated mode: cap the global reconciliation waves at
        this many rounds and extract only the mutual locks (see
        :mod:`repro.core.truncation`).  The cap is applied on the
        *global* round clock — every shard stops after the same wave —
        so the truncated matching stays shard-count-invariant, exactly
        like the converged one.  ``None`` runs to convergence.
    telemetry, probe:
        As the fast engine.  A one-shard run reports exactly the
        ``build_weights`` / ``sim_loop`` / ``extract`` phases; with
        ``k > 1`` the run additionally records one ``partition`` span,
        a per-shard ``shard<i>`` span plus a ``reconcile`` span under
        ``sim_loop``.  Probe samples aggregate all shards with the
        reference tick convention (bit-identical trajectory for
        ``shards=1``).
    _kernel:
        Test hook: force the ``"list"`` / ``"arrays"`` (interpreted
        ndarray layout) / ``"jit"`` layout regardless of ``jit``/numba.
    """
    max_rounds = validate_max_rounds(max_rounds)
    tel = telemetry if telemetry is not None else Telemetry()
    mark = tel.mark()
    kernel_mode = _resolve_kernel_mode(jit, _kernel)

    with tel.span("build_weights"):
        fi = _coerce_instance(src, quotas)
        n, m = fi.n, fi.m
        if quotas is None:
            quota = fi.quota
        else:
            quota = np.asarray(check_quotas(quotas, n), dtype=np.int64)

        start, nbr, rev, owner = _directed_layout(fi)
        deg = np.diff(start)

        # ---- round 0: vectorised initial top-up + bulk REJ fan-out ----
        eff = np.minimum(quota, deg)  # proposals each node can place now
        prop0 = (np.arange(2 * m, dtype=np.int64) - start[owner]) < eff[owner]
        fin0 = eff <= 0  # quota 0 or no neighbours: terminate at once
        rej0 = fin0[owner]  # ... broadcasting REJ to every neighbour

        # A message is one int carrying everything its *receiver* needs:
        # ``receiver << sh | receiver_slot << 1 | is_rej``.  Sender slot
        # s delivers on the receiver's paired slot rev[s] of node
        # nbr[s], so the kernel runs on two shifts and zero table
        # lookups.
        rbits = (2 * m).bit_length()
        sh = rbits + 1
        rmask = (1 << rbits) - 1
        packed = (nbr << sh) | (rev << 1)  # indexed by *sender* slot
        cur0 = (packed | rej0)[prop0 | rej0]
        state0 = {
            "st": (np.where(rej0, 0, IN) | np.where(prop0, PR, 0)).astype(
                np.uint8
            ),
            "packed": packed,
            "finished": fin0.astype(np.uint8),
            "room": quota - eff,  # b_i - |P_i|: top-up capacity left
            "n_out": eff.copy(),  # |P_i \ K_i|: outstanding proposals
            "cursor": start[:-1] + eff,  # weight-list scan position
            "props": eff.copy(),
            "rejs": np.where(fin0, deg, 0),
        }
        del prop0, rej0, packed  # round-0 temporaries: off the RSS peak

        if max_events is None:
            max_events = 1000 + 500 * n + 50 * len(cur0)
        k = max(1, min(int(shards), n))
        if k == 1:  # no partition phase: a lone shard is the whole graph
            bounds, executor, inboxes = _launch(
                k, workers, kernel_mode, start, owner, state0, cur0, sh,
                rmask, probe,
            )

    if k > 1:
        with tel.span("partition"):
            bounds, executor, inboxes = _launch(
                k, workers, kernel_mode, start, owner, state0, cur0, sh,
                rmask, probe,
            )
    state0 = None  # the cores own (or have copied) their slices now
    total_quota = int(quota.sum())

    def _merged_sample(tick: float, parts) -> ProbeSample:
        locks = sum(p[0] for p in parts)
        return ProbeSample(
            t=float(tick),
            locks=locks,
            matched_nodes=sum(p[1] for p in parts),
            finished_nodes=sum(p[2] for p in parts),
            outstanding_props=sum(p[3] for p in parts),
            props_sent=sum(p[4] for p in parts),
            rejs_sent=sum(p[5] for p in parts),
            quota_fill=(locks / total_quota) if total_quota else 0.0,
        )

    # ---- synchronous waves: round r delivers round r-1's sends --------
    probe_tick = 0.0
    rounds = 0
    events = 0
    late_total = 0
    delivered_prop = 0
    delivered_rej = 0
    max_depth = 0
    cut_messages = 0
    reconcile_s = 0.0
    try:
        with tel.span("sim_loop"):
            pending = sum(len(b) for b in inboxes)
            while pending:
                if max_rounds is not None and rounds >= max_rounds:
                    break  # round budget spent: drop the in-flight wave
                if probe is not None and rounds + 1 >= probe_tick:
                    # catch the tick counter up to this wave's delivery
                    # time — the same peek-ahead Simulator.run does
                    parts = executor.sample()
                    while rounds + 1 >= probe_tick:
                        probe.record(_merged_sample(probe_tick, parts))
                        probe_tick += probe.interval
                rounds += 1
                events += pending
                results = executor.wave(inboxes)
                t0 = perf_counter()
                delivered_before = delivered_prop + delivered_rej
                for _, late, dp, dr in results:
                    late_total += late
                    delivered_prop += dp
                    delivered_rej += dr
                nxt = []
                for d in range(k):
                    parts_d = [results[s][0][d] for s in range(k)]
                    cut_messages += sum(
                        len(p) for s, p in enumerate(parts_d) if s != d
                    )
                    nonempty = [p for p in parts_d if len(p)]
                    if len(nonempty) == 1:
                        nxt.append(nonempty[0])
                    elif nonempty:
                        nxt.append(np.concatenate(nonempty))
                    else:
                        nxt.append(cur0[:0])
                inboxes = nxt
                reconcile_s += perf_counter() - t0
                if delivered_prop + delivered_rej > delivered_before:
                    max_depth = rounds
                if delivered_prop + delivered_rej > max_events:
                    raise ProtocolError(
                        f"LID exceeded {max_events} deliveries without"
                        " quiescing; likely a protocol bug (Lemma 5"
                        " guarantees termination)"
                    )
                pending = sum(len(b) for b in inboxes)
            if probe is not None:
                # quiescence: exactly one final sample, like the
                # reference engine's empty-queue tick
                probe.record(_merged_sample(probe_tick, executor.sample()))

            finals = executor.finalize()
            if k > 1:
                for s, fin in enumerate(finals):
                    tel.add_span(f"shard{s}", fin["wave_seconds"])
                tel.add_span("reconcile", reconcile_s)
    finally:
        executor.close()

    with tel.span("extract"):

        def gather(key: str) -> np.ndarray:
            parts = [f[key] for f in finals]
            return parts[0] if k == 1 else np.concatenate(parts)

        st_all = gather("st")
        finished_all = gather("finished")
        props_arr = gather("props")
        rejs_arr = gather("rejs")
        received_arr = gather("received")

        released = 0
        if max_rounds is None:
            if not finished_all.all():
                bad = int(np.flatnonzero(finished_all == 0)[0])
                raise ProtocolError(
                    f"node {bad} did not finish (Lemma 5 violated?)"
                )
            lk = (st_all & LK) != 0
            if m and not np.array_equal(lk, lk[rev]):
                s_ = int(np.flatnonzero(lk != lk[rev])[0])
                i_, j_ = int(owner[s_]), int(nbr[s_])
                raise ProtocolError(
                    f"asymmetric lock: {i_} locked {j_} but not vice versa"
                )
        else:
            # truncated: a one-sided lock means the partner's confirming
            # PROP was still in flight — release it (deterministically)
            # and keep only the mutual locks, which are feasible by
            # construction (see core.truncation)
            lk_raw = (st_all & LK) != 0
            lk = lk_raw & lk_raw[rev]
            released = int(np.count_nonzero(lk_raw & ~lk))
        half = lk & (owner < nbr)
        matching = Matching.from_trusted_arrays(n, owner[half], nbr[half])
        # only the truncation report reads the mask: converged runs skip it
        matched_mask = (
            None if max_rounds is None else fi.edge_mask(owner[half], nbr[half])
        )

        metrics = SimMetrics()
        total_props = int(props_arr.sum())
        total_rejs = int(rejs_arr.sum())
        if total_props:
            metrics.sent_by_kind[PROP] = total_props
        if total_rejs:
            metrics.sent_by_kind[REJ] = total_rejs
        if delivered_prop:
            metrics.delivered_by_kind[PROP] = delivered_prop
        if delivered_rej:
            metrics.delivered_by_kind[REJ] = delivered_rej
        sent_arr = props_arr + rejs_arr
        nz = np.flatnonzero(sent_arr)
        metrics.sent_by_node.update(
            dict(zip(nz.tolist(), sent_arr[nz].tolist()))
        )
        nz_r = np.flatnonzero(received_arr)
        metrics.received_by_node.update(
            dict(zip(nz_r.tolist(), received_arr[nz_r].tolist()))
        )
        metrics.events = events
        metrics.end_time = float(rounds)
        metrics.max_depth = max_depth

        shard_stats = []
        for s, fin in enumerate(finals):
            nlo, nhi = int(bounds[s]), int(bounds[s + 1])
            shard_stats.append(
                {
                    "shard": s,
                    "nodes": nhi - nlo,
                    "slots": int(start[nhi] - start[nlo]),
                    "processed": int(fin["processed"]),
                    "late": int(fin["late"]),
                    "props_sent": int(fin["props"].sum()),
                    "rejs_sent": int(fin["rejs"].sum()),
                    "locks": int(((fin["st"] & LK) != 0).sum()),
                    "wave_ms": 1e3 * fin["wave_seconds"],
                }
            )
    metrics.phase_seconds = tel.phase_seconds(since=mark)
    return ShardedLidResult(
        matching=matching,
        metrics=metrics,
        props_sent=props_arr,
        rejs_sent=rejs_arr,
        late_messages=late_total,
        truncation=TruncationReport(
            max_rounds=max_rounds,
            rounds=rounds,
            converged=(pending == 0),
            released_locks=released,
        ),
        matched_mask=matched_mask,
        shards=k,
        jit=(kernel_mode == "jit"),
        cut_messages=cut_messages,
        reconcile_seconds=reconcile_s,
        shard_stats=shard_stats,
    )
