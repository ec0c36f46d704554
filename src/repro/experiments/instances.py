"""Reproducible instance suites for the experiments.

Three kinds of instances feed the benchmark harness:

- *preference instances* (PreferenceSystem): overlay scenarios and
  uniformly random preference systems,
- *weighted instances* (WeightTable + quotas): pure many-to-many
  maximum-weighted-matching inputs for the Theorem 2 experiments,
- *adversarial instances*: the canonical cyclic-preference families on
  which best-response dynamics oscillate (experiment F4).
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

import numpy as np

from repro.core.preferences import PreferenceSystem
from repro.core.weights import WeightTable
from repro.overlay.topology import (
    Topology,
    barabasi_albert,
    erdos_renyi,
    random_geometric,
    random_regular,
    watts_strogatz,
)
from repro.utils.rng import spawn_rng

__all__ = [
    "random_preference_instance",
    "topology_for_family",
    "family_instance",
    "random_weighted_instance",
    "cyclic_roommates",
    "FAMILIES",
]

FAMILIES = ("er", "geo", "ba", "ws", "reg")


def topology_for_family(family: str, n: int, rng: np.random.Generator) -> Topology:
    """A representative topology of each named family at size ``n``.

    Parameters are chosen to keep the expected degree ≈ 8 across
    families so size sweeps compare like with like.
    """
    if family == "er":
        return erdos_renyi(n, p=min(1.0, 8.0 / max(n - 1, 1)), rng=rng)
    if family == "geo":
        return random_geometric(n, radius=min(1.0, (8.0 / (np.pi * max(n, 1))) ** 0.5 * 1.8), rng=rng)
    if family == "ba":
        return barabasi_albert(n, m_attach=min(4, n - 1), rng=rng)
    if family == "ws":
        k = max(2, min(8, n - 1) - (min(8, n - 1) % 2))
        return watts_strogatz(n, k=k, beta=0.25, rng=rng)
    if family == "reg":
        d = 8 if (n * 8) % 2 == 0 and n > 8 else 4
        if d >= n:
            d = n - 1 - ((n - 1) % 2 == 1 and n % 2 == 1)
            d = max(1, d)
        return random_regular(n, d=d, rng=rng)
    raise KeyError(f"unknown family {family!r}; known: {FAMILIES}")


def random_preference_instance(
    n: int,
    p: float,
    quota: int | Sequence[int],
    seed: int,
) -> PreferenceSystem:
    """Erdős–Rényi graph with uniformly random preference lists.

    The standard random stable-roommates-style instance: each node
    ranks its neighbourhood in uniformly random order (independent
    across nodes), so preference cycles appear with high probability —
    the regime the paper targets.
    """
    rng = spawn_rng(seed, "random-pref", str(n), str(p))
    topo = erdos_renyi(n, p, rng)
    return _random_rankings(topo, quota, rng)


def _random_rankings(
    topo: Topology, quota: int | Sequence[int], rng: np.random.Generator
) -> PreferenceSystem:
    """Shuffle each neighbourhood in place as a slice of one flat array.

    ``Generator.shuffle`` draws the same on a 1-D view as on a fresh
    copy of the row, so the rankings match shuffling row by row.
    """
    deg = np.fromiter(map(len, topo.adjacency), dtype=np.int64, count=topo.n)
    flat = np.fromiter(
        chain.from_iterable(topo.adjacency), dtype=np.int64, count=int(deg.sum())
    )
    ends = np.cumsum(deg).tolist()
    rows = [flat[a:b] for a, b in zip([0, *ends[:-1]], ends)]
    for row in rows:
        rng.shuffle(row)
    return PreferenceSystem(rows, quota)


def family_instance(
    family: str, n: int, quota: int | Sequence[int], seed: int
) -> PreferenceSystem:
    """Random-preference instance over a named topology family."""
    rng = spawn_rng(seed, "family", family, str(n))
    topo = topology_for_family(family, n, rng)
    return _random_rankings(topo, quota, rng)


def random_weighted_instance(
    n: int, p: float, seed: int, quota_range: tuple[int, int] = (1, 4)
) -> tuple[WeightTable, list[int]]:
    """Pure weighted-matching instance: ER graph, U(0,1] weights, random quotas."""
    rng = spawn_rng(seed, "weighted", str(n), str(p))
    topo = erdos_renyi(n, p, rng)
    weights = {
        (i, j): float(rng.uniform(1e-6, 1.0)) for i, j in topo.edges()
    }
    lo, hi = quota_range
    quotas = [int(rng.integers(lo, hi + 1)) for _ in range(n)]
    wt = WeightTable(weights, n)
    return wt, quotas


def cyclic_roommates(k: int, quota: int = 1) -> PreferenceSystem:
    """The canonical cyclic-preference ring on ``k ≥ 3`` nodes.

    Nodes ``0..k-1`` on a cycle, each also knowing its two ring
    neighbours, with rankings rotated so that every node prefers its
    clockwise successor to its predecessor.  For odd ``k`` with
    ``quota=1`` this is the classic stable-roommates counterexample
    family: no stable matching exists and best-response dynamics
    oscillate forever, while LID terminates unconditionally (Lemma 5) —
    the exact contrast of experiment F4.
    """
    if k < 3:
        raise ValueError(f"need k >= 3, got {k}")
    rankings = {
        i: [(i + 1) % k, (i - 1) % k] for i in range(k)
    }
    return PreferenceSystem(rankings, quota)
