"""Array-backed fast backend: vectorised kernels for large instances.

The scalar implementations in :mod:`repro.core.satisfaction`,
:mod:`repro.core.weights` and :mod:`repro.core.lic` are the readable
reference; profiling (HPC-guide workflow: make it work → make it right →
measure) shows the per-edge Python loops dominate beyond a few thousand
nodes.  This module lowers a :class:`PreferenceSystem` to contiguous
NumPy arrays **once** (:class:`FastInstance`) and runs the whole hot
path on them:

- :class:`FastInstance` — edge-indexed arrays ``(i, j, R_i(j), R_j(i),
  w)`` plus node arrays ``(ℓ, b)``, built with vectorised rank recovery
  (one stable argsort over undirected-edge codes pairs each directed
  edge with its reverse, no per-edge dict lookups),
- :func:`lic_matching_fast` — Algorithm 2 via argsort over the
  total-order keys plus residual-quota counters.  Batched
  within-quota-rank rounds do the bulk of the selection vectorised; a
  sequential scan finishes any adversarial tail, so the result is
  *always* the exact LIC edge set (confluence, Lemmas 4/6),
- :func:`edge_weight_arrays` / :func:`satisfaction_weights_fast` —
  eq.-9 weights for all edges in one vectorised pass,
- :func:`satisfaction_profile_fast` — per-node eq.-1 / eq.-6
  satisfaction for a whole matching via ``np.add.at`` scatter sums.

Every kernel is differentially tested against its scalar reference
(``tests/core/test_fast.py``) and benchmarked in
``bench_p1_vectorised_kernels.py`` / ``bench_p3_fast_backend.py``.
The weight arithmetic mirrors :func:`repro.core.satisfaction.delta_static`
operation for operation, so weights — and therefore the greedy total
order and the selected edge set — are bit-identical to the reference,
not merely close.  See ``docs/performance.md``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.matching import Matching
from repro.core.preferences import PreferenceSystem
from repro.core.weights import WeightTable
from repro.utils.validation import check_quotas

__all__ = [
    "FastInstance",
    "lic_matching_fast",
    "edge_weight_arrays",
    "satisfaction_weights_fast",
    "satisfaction_profile_fast",
]


class FastInstance:
    """A preference system (or weighted instance) lowered to flat arrays.

    Invariant: the edge arrays are in canonical ascending ``(i, j)``
    order — the :meth:`PreferenceSystem.edges` order — which lets
    :meth:`sorted_order` realise the total-order tie-break with a single
    stable argsort over the weights.

    Attributes
    ----------
    n, m:
        Node and edge counts.
    i, j:
        ``int64[m]`` canonical edge endpoints (``i < j``), in the same
        order as :meth:`PreferenceSystem.edges`.
    w:
        ``float64[m]`` positive edge weights (eq. 9 for instances built
        from a :class:`PreferenceSystem`).
    quota:
        ``int64[n]`` connection quotas ``b_i``.
    ri, rj:
        ``float64[m]`` ranks ``R_i(j)`` / ``R_j(i)`` (``None`` when the
        instance was built from a bare :class:`WeightTable`).
    ell:
        ``float64[n]`` clamped list lengths ``max(ℓ_i, 1)`` (``None``
        for bare weight tables).
    """

    __slots__ = ("n", "m", "i", "j", "w", "quota", "ri", "rj", "ell", "_order", "_wt")

    def __init__(
        self,
        n: int,
        i: np.ndarray,
        j: np.ndarray,
        w: np.ndarray,
        quota: np.ndarray,
        ri: np.ndarray | None = None,
        rj: np.ndarray | None = None,
        ell: np.ndarray | None = None,
    ):
        self.n = int(n)
        self.m = len(w)
        self.i = i
        self.j = j
        self.w = w
        self.quota = quota
        self.ri = ri
        self.rj = rj
        self.ell = ell
        self._order: np.ndarray | None = None
        self._wt: WeightTable | None = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_preference_system(cls, ps: PreferenceSystem) -> "FastInstance":
        """Lower a preference system: one vectorised pass, eq.-9 weights.

        Reads the instance's flat lists (:meth:`PreferenceSystem.flat_rows`)
        as they are.  Rank recovery avoids per-edge dict lookups.  Each directed edge
        ``u → v`` is encoded as the *undirected* code
        ``min(u,v) * n + max(u,v)``; one stable argsort then places the
        two directions of every edge adjacently (i-side first, because
        the directed list is ordered by owner), in canonical ascending
        ``(i, j)`` order.  Ranks ``R_i(j)`` / ``R_j(i)`` fall out of the
        within-list positions of the two paired entries — no
        searchsorted, no second sort.
        """
        n = ps.n
        degs, nbr = ps.flat_rows()
        total = len(nbr)
        if total == 0:
            e = np.empty(0, dtype=np.int64)
            return cls(
                n,
                e,
                e,
                np.empty(0, dtype=np.float64),
                np.asarray(ps.quotas, dtype=np.int64),
                ri=np.empty(0, dtype=np.float64),
                rj=np.empty(0, dtype=np.float64),
                ell=np.maximum(degs, 1).astype(np.float64),
            )
        own = np.repeat(np.arange(n, dtype=np.int64), degs)
        starts = np.zeros(n, dtype=np.int64)
        np.cumsum(degs[:-1], out=starts[1:])
        pos = np.arange(total, dtype=np.int64) - np.repeat(starts, degs)

        mn = np.minimum(own, nbr)
        mx = np.maximum(own, nbr)
        # appending the direction bit makes the codes unique, so the
        # (much faster) non-stable quicksort gives the same permutation
        # a stable sort of the bare codes would; int32 keys when they fit
        code_dtype = np.int32 if 2 * n * n < 2**31 else np.int64
        und = (mn.astype(code_dtype) * code_dtype(n) + mx.astype(code_dtype)) * 2
        und += own > nbr
        srt = np.argsort(und)
        a = srt[0::2]  # i-side directed edge of each pair (owner < neighbour)
        b_side = srt[1::2]  # j-side (the reverse direction)
        i = own[a]
        j = nbr[a]
        ri = pos[a].astype(np.float64)
        rj = pos[b_side].astype(np.float64)

        ell = np.maximum(degs, 1).astype(np.float64)
        quota = np.asarray(ps.quotas, dtype=np.int64)
        b = np.maximum(quota, 1).astype(np.float64)
        # mirrors delta_static(ps, i, j) + delta_static(ps, j, i) op for op,
        # so the floats are bit-identical to the scalar reference
        w = (1.0 - ri / ell[i]) / b[i] + (1.0 - rj / ell[j]) / b[j]
        return cls(n, i, j, w, quota, ri=ri, rj=rj, ell=ell)

    @classmethod
    def from_weight_table(
        cls, wt: WeightTable, quotas: Sequence[int]
    ) -> "FastInstance":
        """Lower an arbitrary positive-weight table (Theorem 2 inputs)."""
        quota = np.asarray(check_quotas(quotas, wt.n), dtype=np.int64)
        m = wt.m
        i = np.empty(m, dtype=np.int64)
        j = np.empty(m, dtype=np.int64)
        w = np.empty(m, dtype=np.float64)
        for k, ((a, b), wk) in enumerate(wt.items()):
            i[k] = a
            j[k] = b
            w[k] = wk
        # restore the canonical ascending (i, j) invariant — weight
        # tables built from arbitrary triples carry insertion order
        canon = np.lexsort((j, i))
        return cls(wt.n, i[canon], j[canon], w[canon], quota)

    # ------------------------------------------------------------------
    # derived structures
    # ------------------------------------------------------------------

    def sorted_order(self) -> np.ndarray:
        """Edge indices by strictly decreasing total-order key ``(w, i, j)``.

        Identical ordering to :meth:`WeightTable.sorted_edges`: because
        the edge arrays hold canonical ascending ``(i, j)`` order, a
        *stable* ascending argsort of ``w`` keeps equal-weight edges in
        ascending ``(i, j)``; reversing the whole permutation yields
        descending ``(w, i, j)`` — the exact reference scan order.
        """
        if self._order is None:
            self._order = np.argsort(self.w, kind="stable")[::-1]
        return self._order

    def weight_table(self) -> WeightTable:
        """The equivalent :class:`WeightTable` (cached; its dict is built on first use)."""
        if self._wt is None:
            self._wt = WeightTable.from_trusted_arrays(self.i, self.j, self.w, self.n)
        return self._wt

    def __repr__(self) -> str:
        return f"FastInstance(n={self.n}, m={self.m})"


def _coerce_instance(
    src: "FastInstance | PreferenceSystem | WeightTable",
    quotas: Sequence[int] | None,
) -> FastInstance:
    if isinstance(src, FastInstance):
        return src
    if isinstance(src, PreferenceSystem):
        return FastInstance.from_preference_system(src)
    if isinstance(src, WeightTable):
        if quotas is None:
            raise ValueError("quotas are required when passing a WeightTable")
        return FastInstance.from_weight_table(src, quotas)
    raise TypeError(f"cannot lower {type(src).__name__} to a FastInstance")


def lic_matching_fast(
    src: "FastInstance | PreferenceSystem | WeightTable",
    quotas: Sequence[int] | None = None,
    *,
    max_rounds: int = 64,
    tail_threshold: int = 2048,
) -> Matching:
    """Array-backed LIC: the exact :func:`repro.core.lic.lic_matching` edge set.

    The total order is materialised once with a stable argsort over the
    weights (:meth:`FastInstance.sorted_order`); selection then runs
    *batched within-quota-rank rounds*.  Let ``rank_v(e)`` be the
    0-based position of pool edge ``e`` among the pool edges at node
    ``v`` in scan order.  A round simultaneously selects every edge with
    ``rank_i(e) < residual[i]`` and ``rank_j(e) < residual[j]``.

    Each such edge is provably selected by the sequential scan on the
    current pool: when the scan reaches ``e``, at most ``rank_v(e)``
    higher-priority pool edges at ``v`` can have been selected, so
    ``v`` retains capacity.  Conversely the leftover pool re-scanned
    with the decremented residuals yields exactly the remaining
    scan-selected edges — any batch edge below ``e`` at ``v`` has
    ``rank > rank_v(e)``, so it never starves an edge the scan would
    have taken.  Iterating therefore reproduces the reference edge set
    exactly (and confluence — Lemmas 4/6 — makes that *the* LIC output).

    Random instances finish in O(log m) rounds; a strictly decreasing
    weight chain could need Θ(m), so after ``max_rounds`` — or as soon
    as the pool is small — the surviving pool (with its residual
    counters) is handed to the plain sequential scan, keeping the worst
    case O(m log m) like the reference.

    Parameters
    ----------
    src:
        A :class:`FastInstance` (preferred — lower once, solve many), a
        :class:`PreferenceSystem` (lowered on the fly), or a
        :class:`WeightTable` (requires ``quotas``).
    quotas:
        Residual capacities for the scan; defaults to the source's own
        quotas.  Required with a :class:`WeightTable` source.  An
        override does not change the eq.-9 weights — it mirrors calling
        the reference ``lic_matching(wt, quotas)`` with the same table.
    max_rounds:
        Batched rounds before falling back to the sequential scan;
        ``0`` forces the pure sequential path (used in tests).
    tail_threshold:
        Pool size below which the remaining edges go straight to the
        sequential scan (vectorisation overhead beats Python below it).
    """
    fi = _coerce_instance(src, quotas)
    n, m = fi.n, fi.m
    if m == 0:
        return Matching(n)
    i, j = fi.i, fi.j
    order = fi.sorted_order()

    if quotas is None:
        residual = fi.quota.copy()
    else:
        residual = np.asarray(quotas, dtype=fi.quota.dtype).copy()
        if residual.shape != (n,):
            raise ValueError(f"quotas must have length {n}, got {residual.shape}")
    selected = np.zeros(m, dtype=bool)
    # pool = edges whose endpoints both retain capacity (isolated-node
    # safety), kept in scan order throughout: it starts as a filter of
    # `order` and every later update is an order-preserving boolean
    # filter.  Endpoint columns are carried across rounds (int32: the
    # per-round stable sort is radix and twice as fast on 4-byte keys).
    pool = order[(residual[i[order]] > 0) & (residual[j[order]] > 0)]
    pi = i[pool].astype(np.int32)
    pj = j[pool].astype(np.int32)
    p = len(pool)

    g_node: np.ndarray | None = None
    g_edge: np.ndarray | None = None
    if max_rounds > 0 and p >= tail_threshold:
        # group the 2p (edge, endpoint) slots by node ONCE: interleaving
        # the endpoint columns keeps each node's occurrences in scan
        # order, and appending the slot index makes the sort key unique,
        # so non-stable quicksort (≈4x faster than kind="stable") yields
        # the grouped order.  Rounds below only *filter* these arrays —
        # within-group ranks are recomputed with O(p) bincount/cumsum,
        # never by re-sorting.
        nodes2 = np.empty(2 * p, dtype=np.int32)
        nodes2[0::2] = pi
        nodes2[1::2] = pj
        key = nodes2.astype(np.int64) * (2 * p) + np.arange(2 * p, dtype=np.int64)
        srt = np.argsort(key)
        g_node = nodes2[srt]
        g_edge = (srt >> 1).astype(np.int32)  # slot -> index into pool arrays

    for _ in range(max_rounds):
        if p < tail_threshold:
            break
        counts = np.bincount(g_node, minlength=n)
        starts = np.zeros(n, dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        # rank_v(e): 0-based position of the slot within its node group
        within = np.arange(len(g_node), dtype=np.int64) - starts[g_node]
        cond = within < residual[g_node]
        # an edge is selected when BOTH its endpoint slots pass
        sel = np.bincount(g_edge[cond], minlength=p) == 2
        selected[pool[sel]] = True
        # a node may gain several edges per round — aggregate with bincount
        residual -= np.bincount(pi[sel], minlength=n)
        residual -= np.bincount(pj[sel], minlength=n)
        keep = ~sel
        keep &= (residual[pi] > 0) & (residual[pj] > 0)
        # compact the pool and remap the grouped slots to the new indices
        newidx = np.cumsum(keep, dtype=np.int64) - 1
        gk = keep[g_edge]
        g_edge = newidx[g_edge[gk]].astype(np.int32)
        g_node = g_node[gk]
        pool, pi, pj = pool[keep], pi[keep], pj[keep]
        p = len(pool)

    if len(pool):
        # small or adversarial tail: finish with the sequential
        # residual-quota scan (pool is already in scan order)
        res = residual.tolist()
        for k, a, b in zip(pool.tolist(), pi.tolist(), pj.tolist()):
            if res[a] > 0 and res[b] > 0:
                selected[k] = True
                res[a] -= 1
                res[b] -= 1

    return Matching.from_trusted_arrays(n, i[selected], j[selected])


def _instance_arrays(ps: PreferenceSystem):
    """Edge-indexed arrays (i, j, R_i(j), R_j(i)) and node arrays (ℓ, b)."""
    fi = FastInstance.from_preference_system(ps)
    b = np.maximum(fi.quota, 1).astype(np.float64)
    return fi.i, fi.j, fi.ri, fi.rj, fi.ell, b


def edge_weight_arrays(ps: PreferenceSystem):
    """Vectorised eq.-9 weights.

    Returns ``(i, j, w)`` arrays over the canonical edge list of ``ps``
    (``i < j``).  ``w[k] = (1 - R_i(j)/ℓ_i)/b_i + (1 - R_j(i)/ℓ_j)/b_j``.
    """
    fi = FastInstance.from_preference_system(ps)
    return fi.i, fi.j, fi.w


def satisfaction_weights_fast(ps: PreferenceSystem) -> WeightTable:
    """Drop-in replacement for :func:`repro.core.weights.satisfaction_weights`.

    Identical output table; the weight computation is vectorised (the
    residual cost is the dict the :class:`WeightTable` API requires).
    """
    return FastInstance.from_preference_system(ps).weight_table()


def satisfaction_profile_fast(
    ps: PreferenceSystem, matching: Matching, kind: str = "full"
) -> np.ndarray:
    """Vectorised per-node satisfaction of a matching.

    Equivalent to :meth:`Matching.satisfaction_vector`; scatter-adds the
    matched-edge rank contributions with ``np.add.at`` instead of
    iterating per node.
    """
    if kind not in ("full", "static"):
        raise ValueError(f"kind must be 'full' or 'static', got {kind!r}")
    n = ps.n
    counts = np.zeros(n, dtype=np.float64)
    rank_sums = np.zeros(n, dtype=np.float64)
    edges = matching.edges()
    if edges:
        i_arr = np.empty(len(edges), dtype=np.int64)
        j_arr = np.empty(len(edges), dtype=np.int64)
        ri = np.empty(len(edges), dtype=np.float64)
        rj = np.empty(len(edges), dtype=np.float64)
        for k, (i, j) in enumerate(edges):
            i_arr[k] = i
            j_arr[k] = j
            ri[k] = ps.rank(i, j)
            rj[k] = ps.rank(j, i)
        np.add.at(counts, i_arr, 1.0)
        np.add.at(counts, j_arr, 1.0)
        np.add.at(rank_sums, i_arr, ri)
        np.add.at(rank_sums, j_arr, rj)
    ell = np.array([max(ps.list_length(v), 1) for v in ps.nodes()], dtype=np.float64)
    b_true = np.array([ps.quota(v) for v in ps.nodes()], dtype=np.float64)
    b = np.maximum(b_true, 1.0)
    out = counts / b - rank_sums / (b * ell)
    if kind == "full":
        out = out + counts * (counts - 1.0) / (2.0 * b * ell)
    # isolated nodes (quota 0) score 0 by definition
    out[b_true == 0] = 0.0
    return out
