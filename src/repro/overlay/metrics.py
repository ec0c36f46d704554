"""Suitability metrics — each peer's private notion of a good neighbour.

A metric maps an ordered peer pair to a score (higher = more suitable
*to the first peer*).  The paper stresses that every peer "may follow an
individually chosen metric — that it may even not want to disclose to
other peers"; correspondingly the builder only ever uses metrics to
produce each node's *own* ranking, and the algorithms only ever see the
resulting ranks (and the eq.-9 weights derived from them), never the
metric itself.

Provided metrics mirror the paper's motivating list (§1): distance,
interests, recommendations/history, available resources — plus
composition and private per-peer idiosyncrasy.

**Purity contract.**  A metric is a pure function of the two peers'
attributes: the same pair with the same attributes always scores the
same, and scoring one pair reads nothing else.  The churning overlay
(:class:`repro.overlay.churn.DynamicOverlay`) relies on this to keep
ranked neighbour lists across events and re-score only the pairs an
event touches; it mutates peers only through its own methods.  A metric
with hidden state (a clock, a counter, a shared RNG) would silently
desynchronise those lists — the service guard would then report
ranking drift.
"""

from __future__ import annotations

from typing import Callable, Mapping, Protocol, Sequence

import numpy as np

from repro.overlay.peer import Peer

__all__ = [
    "SuitabilityMetric",
    "DistanceMetric",
    "InterestMetric",
    "BandwidthMetric",
    "ReliabilityMetric",
    "CompositeMetric",
    "PrivateTasteMetric",
    "MetricAssignment",
]


class SuitabilityMetric(Protocol):
    """Callable scoring how suitable ``b`` is as a neighbour of ``a``."""

    def __call__(self, a: Peer, b: Peer) -> float: ...


class DistanceMetric:
    """Prefer nearby peers: score = −‖pos_a − pos_b‖ (latency proxy)."""

    def __call__(self, a: Peer, b: Peer) -> float:
        return -float(np.linalg.norm(a.position - b.position))


class InterestMetric:
    """Prefer peers with similar interests: cosine similarity."""

    def __call__(self, a: Peer, b: Peer) -> float:
        na = float(np.linalg.norm(a.interests))
        nb = float(np.linalg.norm(b.interests))
        if na == 0.0 or nb == 0.0:
            return 0.0
        return float(a.interests @ b.interests) / (na * nb)


class BandwidthMetric:
    """Prefer high-capacity peers: score = candidate's bandwidth."""

    def __call__(self, a: Peer, b: Peer) -> float:
        return float(b.bandwidth)


class ReliabilityMetric:
    """Prefer historically reliable peers (transaction-history proxy)."""

    def __call__(self, a: Peer, b: Peer) -> float:
        return float(b.reliability)


class CompositeMetric:
    """Weighted sum of other metrics.

    ``CompositeMetric([(0.7, DistanceMetric()), (0.3, BandwidthMetric())])``
    models a peer that mostly wants low latency but values capacity.
    Component scores are used raw (callers should pick weights aware of
    each component's scale).
    """

    def __init__(self, parts: Sequence[tuple[float, SuitabilityMetric]]):
        if not parts:
            raise ValueError("CompositeMetric needs at least one component")
        self.parts = list(parts)

    def __call__(self, a: Peer, b: Peer) -> float:
        return sum(w * metric(a, b) for w, metric in self.parts)


class PrivateTasteMetric:
    """A peer-private idiosyncratic score, optionally blended with a base.

    Each calling peer ``a`` has its own hidden random valuation of every
    candidate, drawn deterministically from ``(seed, a.peer_id,
    b.peer_id)``.  With ``blend < 1`` the taste perturbs a base metric;
    with ``blend = 1`` preferences are fully idiosyncratic — the
    fully-heterogeneous regime in which acyclicity assumptions break and
    the paper's weight construction earns its keep (experiment F4).
    """

    def __init__(
        self,
        seed: int,
        base: SuitabilityMetric | None = None,
        blend: float = 1.0,
    ):
        if not (0.0 <= blend <= 1.0):
            raise ValueError(f"blend must be in [0,1], got {blend}")
        if blend < 1.0 and base is None:
            raise ValueError("blend < 1 requires a base metric")
        self.seed = seed
        self.base = base
        self.blend = blend

    def __call__(self, a: Peer, b: Peer) -> float:
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, a.peer_id, b.peer_id])
        )
        taste = float(rng.random())
        if self.blend >= 1.0:
            return taste
        assert self.base is not None
        return self.blend * taste + (1.0 - self.blend) * self.base(a, b)


class MetricAssignment:
    """Per-peer metric choice: ``assignment[peer_id] -> metric``.

    Models the fully distributed scenario where "every peer may follow
    an individually chosen metric".  Missing peers fall back to
    ``default``.
    """

    def __init__(
        self,
        default: SuitabilityMetric,
        overrides: Mapping[int, SuitabilityMetric] | None = None,
    ):
        self.default = default
        self.overrides = dict(overrides or {})

    def metric_for(self, peer_id: int) -> SuitabilityMetric:
        """The metric peer ``peer_id`` evaluates candidates with."""
        return self.overrides.get(peer_id, self.default)

    def score(self, a: Peer, b: Peer) -> float:
        """Score of candidate ``b`` according to ``a``'s own metric."""
        return self.metric_for(a.peer_id)(a, b)
