"""Node satisfaction — the paper's optimisation metric (Section 3).

Given node ``i`` with preference list ``L_i`` (length ``ℓ_i``), quota
``b_i`` and an ordered connection list ``C_i`` (``c_i = |C_i| ≤ b_i``,
ordered by decreasing preference), the paper defines (eq. 1)::

    S_i = c_i / b_i  +  c_i (c_i - 1) / (2 b_i ℓ_i)  -  Σ_{j∈C_i} R_i(j) / (b_i ℓ_i)

``S_i ∈ [0, 1]``; it is maximal (``= b_i / b_i = 1``) exactly when the
node is connected to its top ``b_i`` ranked neighbours.

The per-edge *satisfaction increase* of adding ``j`` as the
``(c_i+1)``-th best connection (``Q_i(j) = c_i``) is (eq. 4)::

    ΔS_i^j = (1 - R_i(j)/ℓ_i) / b_i  +  Q_i(j) / (b_i ℓ_i)
             '------ static -------'   '----- dynamic -----'

Discarding the execution-varying dynamic term yields the *static*
variants (eq. 5 / eq. 6) used to build edge weights::

    ΔS̄_i^j = (1 - R_i(j)/ℓ_i) / b_i
    S̄_i    = c_i / b_i - Σ_{j∈C_i} R_i(j) / (b_i ℓ_i)

Lemma 1 proves ``S̄_i / S_i``-style optimisation loses at most a factor
``½ (1 + 1/b_max)``; :func:`lemma1_worst_case` reproduces the tight
construction (connections drawn from the bottom of the list).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.preferences import PreferenceSystem

__all__ = [
    "delta_full",
    "delta_static",
    "static_increase",
    "connection_list",
    "full_satisfaction",
    "static_satisfaction",
    "static_dynamic_split",
    "satisfaction_vector",
    "total_satisfaction",
    "lemma1_worst_case",
    "lemma1_bound",
]


def static_increase(rank: int, length: int, quota: int) -> float:
    """``ΔS̄`` (eq. 5) from rank ``R_i(j)``, list length ``ℓ_i`` and quota ``b_i``."""
    return (1.0 - rank / length) / quota


def delta_static(ps: PreferenceSystem, i: int, j: int) -> float:
    """Static satisfaction increase ``ΔS̄_i^j`` (eq. 5).

    Depends only on the rank of ``j`` in ``i``'s preference list; this is
    the execution-independent part used to construct edge weights (eq. 9).
    """
    return static_increase(ps.rank(i, j), ps.list_length(i), ps.quota(i))


def delta_full(ps: PreferenceSystem, i: int, j: int, q: int) -> float:
    """Full satisfaction increase ``ΔS_i^j`` (eq. 4).

    Parameters
    ----------
    q:
        The connection rank ``Q_i(j)``: the number of connections of ``i``
        that it prefers to ``j`` in the final connection list
        (``0 ≤ q ≤ b_i - 1``).
    """
    ell = ps.list_length(i)
    b = ps.quota(i)
    if not (0 <= q < b):
        raise ValueError(f"connection rank q={q} out of range [0, {b})")
    return (1.0 - ps.rank(i, j) / ell) / b + q / (b * ell)


def connection_list(ps: PreferenceSystem, i: int, connections: Iterable[int]) -> list[int]:
    """Order ``connections`` of node ``i`` by decreasing preference (``C_i``).

    The returned list index of ``j`` is its connection rank ``Q_i(j)``.
    """
    return sorted(connections, key=lambda j: ps.rank(i, j))


def full_satisfaction(ps: PreferenceSystem, i: int, connections: Iterable[int]) -> float:
    """Satisfaction ``S_i`` of node ``i`` (eq. 1).

    ``connections`` is any iterable of the matched neighbours of ``i``
    (order irrelevant — eq. 1 only involves the rank multiset).  Isolated
    nodes (quota 0) score 0.
    """
    conns = list(connections)
    b = ps.quota(i)
    if b == 0:
        if conns:
            raise ValueError(f"isolated node {i} cannot have connections")
        return 0.0
    c = len(conns)
    if c > b:
        raise ValueError(f"node {i} has {c} connections, quota is {b}")
    ell = ps.list_length(i)
    rank_sum = sum(ps.rank(i, j) for j in conns)
    return c / b + c * (c - 1) / (2.0 * b * ell) - rank_sum / (b * ell)


def static_satisfaction(ps: PreferenceSystem, i: int, connections: Iterable[int]) -> float:
    """Modified satisfaction ``S̄_i`` (eq. 6) — the static part only."""
    conns = list(connections)
    b = ps.quota(i)
    if b == 0:
        if conns:
            raise ValueError(f"isolated node {i} cannot have connections")
        return 0.0
    c = len(conns)
    if c > b:
        raise ValueError(f"node {i} has {c} connections, quota is {b}")
    ell = ps.list_length(i)
    rank_sum = sum(ps.rank(i, j) for j in conns)
    return c / b - rank_sum / (b * ell)


def static_dynamic_split(
    ps: PreferenceSystem, i: int, connections: Iterable[int]
) -> tuple[float, float]:
    """Split ``S_i = S_i^s + S_i^d`` (eq. 7) into static and dynamic sums.

    Returns ``(S_i^s, S_i^d)``.  ``S_i^s`` equals
    :func:`static_satisfaction` and ``S_i^d = c_i (c_i - 1) / (2 b_i ℓ_i)``
    because the connection ranks ``Q_i(j)`` enumerate ``0..c_i-1``.
    """
    conns = list(connections)
    s_static = static_satisfaction(ps, i, conns)
    b = ps.quota(i)
    if b == 0:
        return 0.0, 0.0
    c = len(conns)
    ell = ps.list_length(i)
    s_dynamic = c * (c - 1) / (2.0 * b * ell)
    return s_static, s_dynamic


def satisfaction_vector(
    ps: PreferenceSystem,
    adjacency: Sequence[Iterable[int]],
    kind: str = "full",
) -> np.ndarray:
    """Per-node satisfaction array for a matching given as adjacency lists.

    Parameters
    ----------
    adjacency:
        ``adjacency[i]`` iterates over the matched neighbours of node ``i``
        (e.g. ``Matching.connections``).
    kind:
        ``"full"`` for eq. 1, ``"static"`` for eq. 6.
    """
    fn = {"full": full_satisfaction, "static": static_satisfaction}[kind]
    return np.array([fn(ps, i, adjacency[i]) for i in ps.nodes()], dtype=float)


def total_satisfaction(
    ps: PreferenceSystem,
    adjacency: Sequence[Iterable[int]],
    kind: str = "full",
) -> float:
    """Total satisfaction ``Σ_i S_i`` — the paper's network-wide objective."""
    return float(satisfaction_vector(ps, adjacency, kind).sum())


def lemma1_worst_case(b: int, ell: int) -> tuple[float, float]:
    """The tight construction in the proof of Lemma 1.

    A node with quota ``b`` and list length ``ell`` whose ``b``
    connections are the *bottom* ``b`` entries of its preference list
    (ranks ``ell-b .. ell-1``).  Returns ``(S^s, S^d)``; the paper derives
    ``S^s = (b+1)/(2 ell)`` and ``S^d = (b-1)/(2 ell)``, so that
    ``S^s / (S^s + S^d) = ½ (1 + 1/b)`` — the worst-case relative value of
    the static part (eq. 8).
    """
    if not (1 <= b <= ell):
        raise ValueError(f"need 1 <= b <= ell, got b={b}, ell={ell}")
    s_static = sum((1.0 - r / ell) / b for r in range(ell - b, ell))
    s_dynamic = sum(q / (b * ell) for q in range(b))
    return s_static, s_dynamic


def lemma1_bound(b: int) -> float:
    """The Lemma 1 guarantee ``½ (1 + 1/b)`` for quota ``b``."""
    if b < 1:
        raise ValueError(f"quota must be >= 1, got {b}")
    return 0.5 * (1.0 + 1.0 / b)
