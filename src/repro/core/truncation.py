"""Round-truncated ("almost stable") LID: the shared truncation contract.

Floréen et al. ("Almost stable matchings in constant time") and
Ostrovsky–Rosenbaum ("Fast distributed almost stable matchings") show
that cutting a propose/accept protocol after ``k`` rounds leaves only a
vanishing fraction of blocking pairs.  This module defines the one
contract every static LID engine implements for ``max_rounds=k``:

- execute exactly ``k`` synchronous delivery waves (the unit-latency
  clock: wave ``r`` delivers the messages sent during wave ``r - 1``;
  the event-driven engines map this onto ``Simulator.run(max_time=k)``,
  which processes every delivery at virtual time ``<= k``);
- stop, *dropping* the in-flight wave ``k + 1`` undelivered;
- extract only the **mutual** locks — a directed lock whose reverse
  direction never locked (the partner's confirming ``PROP`` was still
  in flight) is *released*, counted in
  :attr:`TruncationReport.released_locks`.

The extracted edge set is a feasible partial matching (locks never
exceed quota, and mutuality is enforced by construction), and it is
identical across engines and shard counts for any ``k``: the per-slot
lock round is determined by proposal *send* rounds, which are invariant
under the within-round reordering that distinguishes the engines'
schedules (the same Lemma 3–6 argument that makes the converged
matching schedule-invariant, applied at a round boundary).  The
cross-engine truncation conformance suite pins this empirically.

``max_rounds=None`` is the undisturbed protocol — every engine's output
stays byte-for-byte what it was before truncation existed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

__all__ = [
    "TruncationReport",
    "finalize_truncation",
    "lic_baseline_satisfaction",
    "validate_max_rounds",
]


@dataclass(frozen=True)
class TruncationReport:
    """What a (possibly) round-capped LID run did and what it cost.

    The structural fields (``max_rounds`` / ``rounds`` / ``converged`` /
    ``released_locks``) are filled by every engine from its own run
    state.  The *quality* fields need the ranks of the instance the
    weights came from, so they stay ``None`` at the engine layer and are
    filled by :func:`finalize_truncation` (which
    :func:`repro.core.lid.solve_lid` calls for truncated runs).  Each
    quality field is *defined* by the reference verifier named below
    (:mod:`repro.baselines.verify`, :meth:`Matching.total_satisfaction`)
    and *computed* by :func:`finalize_truncation`'s array kernel, which
    equals that definition under ``==``.

    Attributes
    ----------
    max_rounds:
        The requested round budget (``None`` = run to convergence).
    rounds:
        Delivery waves actually executed — ``min(k, natural quiescence
        round)``.
    converged:
        Whether the run quiesced *within* the budget (no pending
        deliveries when it stopped).  A converged truncated run equals
        the untruncated run bit for bit.
    released_locks:
        Directed one-sided locks dropped at extraction (the partner's
        confirming ``PROP`` was still in flight).  Always ``0`` when
        ``converged``.
    blocking_pairs:
        Defined as ``baselines.verify.count_blocking_pairs`` — the
        rank-based almost-stability measure.  Monotone non-increasing in
        ``k`` (truncated matchings are nested: locks are permanent, so
        the round-``k`` edge set is a subset of round ``k+1``'s), but
        *not* 0 at convergence — LID is a Theorem-3 approximation, not a
        classically stable mechanism.
    weighted_blocking_pairs:
        Defined as ``baselines.verify.count_weighted_blocking_pairs`` —
        blocking under the eq.-9 total-order keys.  Exactly ``0`` at
        convergence (locally dominant selection leaves no weight-blocking
        pair), so this is the distance-to-fixpoint measure the CI gate
        pins.
    satisfaction:
        Full eq.-1 satisfaction of the truncated matching, defined as
        ``Matching.total_satisfaction``.
    satisfaction_ratio:
        ``satisfaction`` over the converged (LIC) matching's
        satisfaction (the LIC edge set of the same instance) — the
        fraction of the protocol's final quality already secured after
        ``k`` rounds (``1.0`` at convergence).
    """

    max_rounds: Optional[int]
    rounds: int
    converged: bool
    released_locks: int
    blocking_pairs: Optional[int] = None
    weighted_blocking_pairs: Optional[int] = None
    satisfaction: Optional[float] = None
    satisfaction_ratio: Optional[float] = None


def validate_max_rounds(max_rounds) -> Optional[int]:
    """Normalise a ``max_rounds`` argument (``None`` or an int ``>= 0``).

    ``0`` is legal and yields the empty matching: no delivery wave runs,
    and locks only ever form on deliveries.
    """
    if max_rounds is None:
        return None
    if isinstance(max_rounds, bool) or not isinstance(max_rounds, int):
        raise ValueError(
            f"max_rounds must be None or a non-negative int, got {max_rounds!r}"
        )
    if max_rounds < 0:
        raise ValueError(f"max_rounds must be >= 0, got {max_rounds}")
    return int(max_rounds)


def lic_baseline_satisfaction(fi) -> float:
    """Satisfaction of the converged matching, without running LID.

    By Lemmas 3–4 the converged LID matching *is* the LIC edge set, so
    the truncation baseline is one (cheap, vectorised) LIC solve on the
    run's own :class:`~repro.core.fast.FastInstance` — no second
    protocol simulation and no second lowering.
    """
    from repro.core.fast import _lic_selected, node_satisfaction

    return float(node_satisfaction(fi, _lic_selected(fi)).sum())


def finalize_truncation(report: TruncationReport, fi, matched) -> TruncationReport:
    """Fill the quality fields of an engine-produced report.

    ``fi`` is the run's :class:`~repro.core.fast.FastInstance` and
    ``matched`` the boolean ``[m]`` mask of its matched edges.  Every
    field is one vectorised pass over those arrays, equal under ``==``
    to the :mod:`repro.baselines.verify` definition (the parity suite
    ``tests/core/test_truncation_report.py`` holds the two together):

    - a node *accepts* a partner when it has spare quota or ranks it
      above its worst held partner (rank notion) / keys the edge above
      its lightest held edge (eq.-9 notion); an unmatched edge blocks
      when both endpoints accept;
    - the eq.-9 total order ``(w, i, j)`` is the inverse permutation of
      :meth:`~repro.core.fast.FastInstance.sorted_order` (position 0 is
      the heaviest key), so "key above" is "position below".
    """
    from repro.core.fast import node_satisfaction

    n, i, j = fi.n, fi.i, fi.j
    mi, mj = i[matched], j[matched]
    spare = np.bincount(mi, minlength=n) + np.bincount(mj, minlength=n) < fi.quota
    free = ~matched

    def blocking(score_i, score_j) -> int:
        # held[v]: the worst score among v's partners (-1 when unmatched);
        # a lower score is better, so a node accepts anything below it
        held = np.full(n, -1, dtype=score_i.dtype)
        np.maximum.at(held, mi, score_i[matched])
        np.maximum.at(held, mj, score_j[matched])
        accept_i = spare[i] | (score_i < held[i])
        accept_j = spare[j] | (score_j < held[j])
        return int(np.count_nonzero(free & accept_i & accept_j))

    pos = np.empty(fi.m, dtype=np.int64)
    pos[fi.sorted_order()] = np.arange(fi.m, dtype=np.int64)
    sat = float(node_satisfaction(fi, matched).sum())
    baseline = lic_baseline_satisfaction(fi)
    return replace(
        report,
        blocking_pairs=blocking(fi.ri, fi.rj),
        weighted_blocking_pairs=blocking(pos, pos),
        satisfaction=sat,
        satisfaction_ratio=sat / baseline if baseline > 0 else 1.0,
    )
