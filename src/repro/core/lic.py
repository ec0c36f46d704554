"""LIC — Local Information-based Centralised algorithm (Algorithm 2).

LIC repeatedly selects a *locally heaviest* edge from a shrinking pool
``P``: an edge ``(a, b)`` whose (total-order) key beats every other pool
edge incident to ``a`` or ``b``.  Each node carries a counter of
remaining capacity; when a node's counter hits zero all its remaining
pool edges are discarded.

The paper (Theorem 2) proves LIC is a ½-approximation of the optimal
many-to-many maximum weighted matching, and (Lemma 6 + Lemma 4) that it
selects exactly the same edge set as the distributed LID — which is how
LID's ratio is established.

Note on the pseudocode: Algorithm 2 line 2 initialises
``counter(v) := d_v`` (the degree).  Taken literally this would select
*every* edge, because no counter could reach zero before its node ran
out of incident pool edges.  Section 2 states capacities "in this case
are the connection quotas ``b_i``", so we initialise
``counter(v) := b_v`` — the evident intent (and the only reading under
which Lemma 6 and Theorem 3 hold).

Two implementations are provided:

- :func:`lic_matching` — the O(m log m) *sorted-scan* execution: process
  edges by decreasing key and select when both endpoints have residual
  capacity.  The heaviest pool edge is always locally heaviest, so this
  is a valid LIC execution.
- :func:`lic_matching_pool` — the faithful pool-based execution with a
  pluggable choice among *all* currently locally heaviest edges.  The
  paper's lemmas imply the outcome is independent of the choice
  (confluence); tests verify this empirically by comparing strategies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Literal, Sequence

import numpy as np

from repro.core.matching import Matching
from repro.core.preferences import PreferenceSystem
from repro.core.weights import WeightTable

if TYPE_CHECKING:
    from repro.core.backend import Backend

__all__ = [
    "lic_matching",
    "lic_matching_pool",
    "solve_modified_bmatching",
    "locally_heaviest_edges",
]

Edge = tuple[int, int]


def lic_matching(wt: WeightTable, quotas: Sequence[int]) -> Matching:
    """Run LIC via the sorted-scan execution.

    Parameters
    ----------
    wt:
        Edge weights (any positive weights; eq.-9 tables for the
        satisfaction pipeline).
    quotas:
        Per-node capacities ``b_i`` (``quotas[i]`` may exceed the degree;
        the scan naturally never selects more than ``deg(i)`` edges).

    Returns
    -------
    Matching
        The greedy many-to-many matching.  By Theorem 2 its weight is at
        least half the optimum.
    """
    n = wt.n
    if len(quotas) != n:
        raise ValueError(f"quotas length {len(quotas)} != n={n}")
    residual = [int(q) for q in quotas]
    matching = Matching(n)
    for a, b in wt.sorted_edges():
        if residual[a] > 0 and residual[b] > 0:
            matching.add(a, b)
            residual[a] -= 1
            residual[b] -= 1
    return matching


def locally_heaviest_edges(
    wt: WeightTable,
    pool: set[Edge],
    incident: list[set[Edge]],
) -> list[Edge]:
    """All pool edges that are locally heaviest (eq. 3 over the pool).

    ``incident[v]`` must hold the pool edges incident to ``v``.  An edge
    is locally heaviest when its key beats the key of every other pool
    edge sharing an endpoint; with the strict total order, at most one
    per neighbourhood qualifies, but distinct neighbourhoods can each
    contribute one.
    """
    out = []
    for e in pool:
        a, b = e
        k = wt.key(a, b)
        best = True
        for f in incident[a]:
            if f != e and wt.key(*f) > k:
                best = False
                break
        if best:
            for f in incident[b]:
                if f != e and wt.key(*f) > k:
                    best = False
                    break
        if best:
            out.append(e)
    return out


def lic_matching_pool(
    wt: WeightTable,
    quotas: Sequence[int],
    strategy: Literal["heaviest", "lightest", "random", "first"] = "random",
    rng: np.random.Generator | None = None,
) -> Matching:
    """Run LIC via the faithful pool-based execution (Algorithm 2).

    At each step the set of locally heaviest pool edges is computed and
    one is selected according to ``strategy``:

    - ``heaviest``: the globally heaviest (replicates the sorted scan),
    - ``lightest``: the *lightest* locally heaviest edge — the adversarial
      order for confluence testing,
    - ``random``: uniform among locally heaviest edges (needs ``rng``),
    - ``first``: lowest canonical edge id.

    This is O(m² · Δ) and intended for correctness testing, not scale.
    """
    n = wt.n
    if len(quotas) != n:
        raise ValueError(f"quotas length {len(quotas)} != n={n}")
    if strategy == "random" and rng is None:
        rng = np.random.default_rng(0)

    counter = [int(q) for q in quotas]
    pool: set[Edge] = set(wt.edges())
    incident: list[set[Edge]] = [set() for _ in range(n)]
    for e in pool:
        incident[e[0]].add(e)
        incident[e[1]].add(e)

    matching = Matching(n)

    def drop(e: Edge) -> None:
        pool.discard(e)
        incident[e[0]].discard(e)
        incident[e[1]].discard(e)

    while pool:
        candidates = locally_heaviest_edges(wt, pool, incident)
        assert candidates, "non-empty pool must contain a locally heaviest edge"
        if strategy == "heaviest":
            e = max(candidates, key=lambda f: wt.key(*f))
        elif strategy == "lightest":
            e = min(candidates, key=lambda f: wt.key(*f))
        elif strategy == "first":
            e = min(candidates)
        elif strategy == "random":
            assert rng is not None
            e = candidates[int(rng.integers(len(candidates)))]
        else:
            raise ValueError(f"unknown strategy {strategy!r}")
        a, b = e
        matching.add(a, b)
        drop(e)
        counter[a] -= 1
        counter[b] -= 1
        if counter[a] == 0:
            for f in list(incident[a]):
                drop(f)
        if counter[b] == 0:
            for f in list(incident[b]):
                drop(f)
    return matching


def solve_modified_bmatching(
    ps: PreferenceSystem, backend: "str | Backend" = "reference"
) -> tuple[Matching, WeightTable]:
    """End-to-end LIC pipeline for a preference system.

    Builds the eq.-9 weight table and runs the sorted-scan LIC.  By
    Theorem 3 (via LID ≡ LIC) the result's *full* satisfaction is a
    ¼(1 + 1/b_max)-approximation of the maximising-satisfaction
    b-matching optimum.

    Parameters
    ----------
    backend:
        Any name (or :class:`~repro.core.backend.Backend`) that
        :func:`~repro.core.backend.get_backend` accepts: ``"reference"``
        (scalar, default), ``"fast"`` or ``"sharded"`` (array-backed,
        :mod:`repro.core.fast`) — identical results either way; see
        ``docs/performance.md``.
    """
    from repro.core.backend import get_backend

    return get_backend(backend).solve(ps)
