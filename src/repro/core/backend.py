"""Execution-backend selector: ``"reference"`` / ``"fast"`` / ``"sharded"``.

The library keeps interchangeable execution paths for the paper's
pipeline (eq.-9 weights → LIC edge selection → satisfaction scoring):

- ``reference`` — the readable scalar implementations
  (:func:`repro.core.weights.satisfaction_weights`,
  :func:`repro.core.lic.lic_matching`,
  :meth:`repro.core.matching.Matching.satisfaction_vector`),
- ``fast`` — the array-backed kernels of :mod:`repro.core.fast`
  (:class:`~repro.core.fast.FastInstance`,
  :func:`~repro.core.fast.lic_matching_fast`,
  :func:`~repro.core.fast.satisfaction_profile_fast`) plus the
  round-batched LID engine of :mod:`repro.core.fast_lid`,
- ``sharded`` — the fast kernels with LID executed by the partitioned
  engine of :mod:`repro.core.sharded_lid` (per-shard wave loops with
  boundary reconciliation, optional ``multiprocessing`` workers and
  numba compilation).

All produce the same results — bit-identical weights and satisfaction
profiles, identical edge sets (LID ≡ LIC, Lemmas 3–6; see
``docs/performance.md``) — so callers pick purely on instance size.
This module is the only code that knows what the names mean: callers
look a :class:`Backend` up with :func:`get_backend` and call its
stages.  That one switch is threaded through
:func:`repro.core.lid.solve_lid`,
:func:`repro.core.lic.solve_modified_bmatching`,
:class:`repro.overlay.churn.DynamicOverlay` (and so
:class:`repro.service.MatchingService`),
:func:`repro.experiments.runner.sweep`, the conformance pipelines of
:mod:`repro.testing.differential` and the ``python -m repro`` CLI.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core import fast_lid  # engine looked up at call time (profilers wrap it)
from repro.core.fast import (
    FastInstance,
    lic_matching_fast,
    satisfaction_profile_fast,
)
from repro.core.lic import lic_matching
from repro.core.lid import LidResult, run_lid
from repro.core.matching import Matching
from repro.core.preferences import PreferenceSystem
from repro.core.sharded_lid import sharded_lid_matching
from repro.core.weights import WeightTable, satisfaction_weights

__all__ = [
    "Backend",
    "BACKENDS",
    "ShardedBackend",
    "get_backend",
    "resolve_backend_name",
]


class Backend:
    """One execution path of the weights → LIC → satisfaction pipeline.

    Subclasses provide the pipeline stages; algorithms take a backend
    (or a backend *name*) and stay agnostic of which path runs.
    """

    name: str = "abstract"

    #: keep an incremental :class:`~repro.overlay.churn.WeightCache`
    #: across churn events instead of rebuilding every weight per event
    caches_weights: bool = False

    def lower(self, ps: PreferenceSystem) -> tuple["WeightTable | FastInstance", WeightTable]:
        """``(instance, weight_table)``: ``ps`` in the form this backend's
        ``lic`` / ``lid`` stages run on, plus its eq.-9 table (the stages
        also accept a plain :class:`WeightTable`)."""
        raise NotImplementedError

    def build_weights(self, ps: PreferenceSystem) -> WeightTable:
        """Eq.-9 weight table of a preference system."""
        return self.lower(ps)[1]

    def lic(self, wt: "WeightTable | FastInstance", quotas: Sequence[int]) -> Matching:
        """Algorithm 2 on an explicit weight table."""
        raise NotImplementedError

    def lid(
        self,
        wt: "WeightTable | FastInstance",
        quotas: Sequence[int],
        seed: int = 0,
        telemetry=None,
        probe=None,
        max_rounds: "int | None" = None,
        latency=None,
        fifo: bool = True,
        trace=None,
        drop_filter=None,
        retransmit_timeout: "float | None" = None,
    ) -> "LidResult | fast_lid.FastLidResult":
        """Algorithm 1 on an explicit weight table.

        With the default channels every backend executes the faithful
        reliable-FIFO-unit-latency schedule: ``reference`` event by
        event through the simulator, ``fast`` / ``sharded`` via the
        round-batched engine — identical matching and message
        statistics (``seed`` only varies channel randomness, which the
        default channels do not have).  ``telemetry`` / ``probe`` (see
        :mod:`repro.telemetry`) are honoured by every path, and a probed
        trajectory is bit-identical between them.  ``max_rounds`` runs
        the round-truncated almost-stable variant under the shared
        contract of :mod:`repro.core.truncation` — the identical
        feasible partial matching on every backend.  The channel and
        fault parameters (``latency`` … ``retransmit_timeout``) are
        those of :func:`repro.core.lid.run_lid`; only ``reference``
        executes non-default ones.
        """
        raise NotImplementedError

    def report_arrays(
        self, ps: PreferenceSystem, inst: "WeightTable | FastInstance", result
    ) -> tuple[FastInstance, np.ndarray]:
        """``(fi, matched)``: what a truncation report reads for ``result``.

        ``inst`` is the :meth:`lower` output the run used; ``matched``
        masks ``fi``'s edges held by ``result.matching``.
        """
        raise NotImplementedError

    def solve(self, ps: PreferenceSystem) -> tuple[Matching, WeightTable]:
        """End-to-end: eq.-9 weights + LIC, returning ``(matching, weight_table)``."""
        inst, wt = self.lower(ps)
        return self.lic(inst, ps.quotas), wt

    def satisfaction_profile(
        self, ps: PreferenceSystem, matching: Matching, kind: str = "full"
    ) -> np.ndarray:
        """Per-node eq.-1 / eq.-6 satisfaction of a matching."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"Backend({self.name!r})"


class ReferenceBackend(Backend):
    """The scalar reference path (readable, O(per-edge Python))."""

    name = "reference"

    def lower(self, ps: PreferenceSystem) -> tuple[WeightTable, WeightTable]:
        wt = satisfaction_weights(ps)
        return wt, wt

    def lic(self, wt: WeightTable, quotas: Sequence[int]) -> Matching:
        return lic_matching(wt, quotas)

    def lid(
        self,
        wt: WeightTable,
        quotas: Sequence[int],
        seed: int = 0,
        telemetry=None,
        probe=None,
        max_rounds: "int | None" = None,
        latency=None,
        fifo: bool = True,
        trace=None,
        drop_filter=None,
        retransmit_timeout: "float | None" = None,
    ) -> LidResult:
        return run_lid(
            wt, quotas, latency=latency, fifo=fifo, seed=seed, trace=trace,
            drop_filter=drop_filter, retransmit_timeout=retransmit_timeout,
            max_rounds=max_rounds, telemetry=telemetry, probe=probe,
        )

    def report_arrays(self, ps, inst, result) -> tuple[FastInstance, np.ndarray]:
        fi = FastInstance.from_preference_system(ps)
        return fi, fi.edge_mask(*result.matching.edge_arrays())

    def satisfaction_profile(
        self, ps: PreferenceSystem, matching: Matching, kind: str = "full"
    ) -> np.ndarray:
        return np.asarray(matching.satisfaction_vector(ps, kind), dtype=np.float64)


class FastBackend(Backend):
    """The array-backed path (NumPy lowering, vectorised kernels)."""

    name = "fast"
    caches_weights = True

    def lower(self, ps: PreferenceSystem) -> tuple[FastInstance, WeightTable]:
        fi = FastInstance.from_preference_system(ps)
        return fi, fi.weight_table()

    def lic(self, wt: "WeightTable | FastInstance", quotas: Sequence[int]) -> Matching:
        return lic_matching_fast(wt, quotas)

    def lid(
        self,
        wt: "WeightTable | FastInstance",
        quotas: Sequence[int],
        seed: int = 0,
        telemetry=None,
        probe=None,
        max_rounds: "int | None" = None,
        latency=None,
        fifo: bool = True,
        trace=None,
        drop_filter=None,
        retransmit_timeout: "float | None" = None,
    ):
        """Round-batched LID; rejects what the batching cannot replay.

        Batching is only exact when every sent message is delivered
        exactly one round later, so a custom ``latency`` / ``trace`` /
        non-FIFO configuration and any fault-injected run
        (``drop_filter`` / ``retransmit_timeout``) raise
        :class:`ValueError` naming the fallback, ``backend='reference'``.
        """
        if latency is not None or trace is not None or not fifo:
            raise ValueError(
                f"backend={self.name!r} replays only the default reliable FIFO "
                "unit-latency channels; use backend='reference' for custom "
                "latency, tracing, or non-FIFO runs"
            )
        if drop_filter is not None or retransmit_timeout is not None:
            raise ValueError(
                f"backend={self.name!r} cannot replay fault-injected runs: "
                "message loss and retransmission timers break the one-round "
                "delivery assumption of the round-batched engine; use "
                "backend='reference' (the event-by-event simulator) for "
                "drop_filter / retransmit_timeout runs"
            )
        return self._engine(wt, quotas, max_rounds, telemetry, probe)

    def _engine(self, wt, quotas, max_rounds, telemetry, probe):
        return fast_lid.lid_matching_fast(
            wt, quotas, max_rounds=max_rounds, telemetry=telemetry, probe=probe
        )

    def report_arrays(self, ps, inst, result) -> tuple[FastInstance, np.ndarray]:
        return inst, result.matched_mask

    def satisfaction_profile(
        self, ps: PreferenceSystem, matching: Matching, kind: str = "full"
    ) -> np.ndarray:
        return satisfaction_profile_fast(ps, matching, kind)


class ShardedBackend(FastBackend):
    """The scale-out path: fast kernels + the sharded LID engine.

    Identical to :class:`FastBackend` for weights / LIC / satisfaction
    (those kernels are already vectorised) and for the channel
    restrictions of :meth:`lid`, which runs
    :func:`repro.core.sharded_lid.sharded_lid_matching` — the identical
    matching for any shard count (the locked edge set is
    schedule-invariant), with ``shards=1`` bit-identical to the fast
    engine.  The registered configuration (``shards=4, workers=0, jit
    auto``) is deterministic and safe inside worker pools (no nested
    multiprocessing); pass an instance such as
    ``ShardedBackend(shards=8, workers=2)`` wherever a backend is
    accepted for in-engine parallelism.
    """

    name = "sharded"

    def __init__(self, shards: int = 4, workers: int = 0, jit: "bool | None" = None):
        self.shards = int(shards)
        self.workers = int(workers)
        self.jit = jit

    def _engine(self, wt, quotas, max_rounds, telemetry, probe):
        return sharded_lid_matching(
            wt,
            quotas,
            shards=self.shards,
            workers=self.workers,
            jit=self.jit,
            max_rounds=max_rounds,
            telemetry=telemetry,
            probe=probe,
        )


BACKENDS: dict[str, Backend] = {
    be.name: be for be in (ReferenceBackend(), FastBackend(), ShardedBackend())
}


def resolve_backend_name(name: "str | Backend") -> str:
    """Validate a backend name (or instance) and return the canonical name.

    String names are case/whitespace-insensitive so values arriving from
    CLI flags or environment variables resolve without ceremony.
    """
    if isinstance(name, Backend):
        return name.name
    if not isinstance(name, str):
        raise TypeError(f"backend must be a name or Backend, got {type(name).__name__}")
    canonical = name.strip().lower()
    if canonical not in BACKENDS:
        raise ValueError(
            f"unknown backend {name!r}; choose from {sorted(BACKENDS)}"
        )
    return canonical


def get_backend(name: "str | Backend" = "reference") -> Backend:
    """Look up a backend by name; passing a :class:`Backend` is a no-op."""
    if isinstance(name, Backend):
        return name
    return BACKENDS[resolve_backend_name(name)]
