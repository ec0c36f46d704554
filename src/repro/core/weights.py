"""Edge weights for the weighted-matching conversion (Section 4, eq. 9).

The modified b-matching problem is converted to a many-to-many maximum
weighted matching by giving each edge ``(i, j)`` the symmetric weight::

    w(i, j) = ΔS̄_i^j + ΔS̄_j^i
            = (1 - R_i(j)/ℓ_i) / b_i  +  (1 - R_j(i)/ℓ_j) / b_j

i.e. the *static* satisfaction gleaned by the two endpoints for that
connection.  Symmetry is what makes Lemma 5's no-communication-cycle
argument work, and thereby guarantees LID's termination.

The paper assumes **unique** edge weights so greedy algorithms can
recognise locally heaviest edges unambiguously, breaking ties "using
node identities".  :class:`WeightTable` realises this with a total-order
*key* ``(w(i,j), min(i,j), max(i,j))``: two edges compare first by
weight, then lexicographically by canonical endpoint ids.  All greedy
logic (LIC pool selection, LID weight lists) compares keys, never raw
weights, so the order is a strict total order shared by every node — the
exact device the paper prescribes.

:class:`WeightTable` is algorithm-agnostic: besides eq.-9 tables (built
via :func:`satisfaction_weights`), arbitrary positive weights can be
loaded with :meth:`WeightTable.from_edge_weights`, which is how the pure
many-to-many maximum-weighted-matching experiments (Theorem 2) are run.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from repro.core.preferences import PreferenceSystem
from repro.core.satisfaction import delta_static
from repro.utils.validation import InvalidInstanceError

__all__ = ["WeightTable", "satisfaction_weights", "edge_key"]

Edge = tuple[int, int]
Key = tuple[float, int, int]


def _canon(i: int, j: int) -> Edge:
    """Canonical undirected-edge representation ``(min, max)``."""
    return (i, j) if i < j else (j, i)


def edge_key(weight: float, i: int, j: int) -> Key:
    """Total-order key of an edge: weight first, then canonical node ids."""
    a, b = _canon(i, j)
    return (weight, a, b)


class WeightTable:
    """Symmetric edge-weight table with a strict total order on edges.

    Parameters
    ----------
    weights:
        Mapping from canonical edges ``(i, j)`` with ``i < j`` to positive
        weights.  (The satisfaction weights of eq. 9 are always positive
        because ``R_i(j) < ℓ_i``.)
    n:
        Number of nodes; edges must stay within ``0..n-1``.
    """

    __slots__ = ("_w", "_n", "_adj", "_sorted", "_arrays")

    def __init__(self, weights: Mapping[Edge, float], n: int):
        self._n = n
        self._w: dict[Edge, float] = {}
        for (i, j), w in weights.items():
            if i == j:
                raise InvalidInstanceError(f"self-loop ({i},{j}) not allowed")
            if not (0 <= i < n and 0 <= j < n):
                raise InvalidInstanceError(f"edge ({i},{j}) outside node range 0..{n-1}")
            e = _canon(i, j)
            if e in self._w:
                raise InvalidInstanceError(f"duplicate edge {e}")
            w = float(w)
            if w <= 0.0:
                raise InvalidInstanceError(
                    f"edge {e} has non-positive weight {w}; greedy analysis "
                    "requires positive weights"
                )
            self._w[e] = w
        self._adj: list[list[int]] | None = None
        self._sorted: list[Edge] | None = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_edge_weights(
        cls, edges: Iterable[tuple[int, int, float]], n: int
    ) -> "WeightTable":
        """Build from ``(i, j, w)`` triples (arbitrary positive weights)."""
        weights: dict[Edge, float] = {}
        for i, j, w in edges:
            e = _canon(i, j)
            if e in weights:
                raise InvalidInstanceError(f"duplicate edge {e}")
            weights[e] = w
        return cls(weights, n)

    @classmethod
    def from_trusted(cls, weights: dict[Edge, float], n: int) -> "WeightTable":
        """Adopt an already-validated weight dict without the per-edge checks.

        The fast backend (:mod:`repro.core.fast`) and the churn weight
        cache produce canonical, duplicate-free, positive-weight dicts by
        construction; re-validating them costs O(m) Python per call.  The
        dict is adopted as-is — callers must guarantee canonical ``i < j``
        keys in ``0..n-1`` and positive weights.
        """
        out = cls.__new__(cls)
        out._n = n
        out._w = weights
        out._adj = None
        out._sorted = None
        return out

    @classmethod
    def from_trusted_arrays(cls, i, j, w, n: int) -> "WeightTable":
        """Adopt parallel edge arrays; the weight dict is built on first use.

        Same contract as :meth:`from_trusted` (canonical ``i < j`` in
        ``0..n-1``, positive weights), for the fast backend's
        :meth:`~repro.core.fast.FastInstance.weight_table`: a caller
        that never reads the table never pays for its dict.
        """
        out = cls.__new__(cls)
        out._n = n
        out._arrays = (i, j, w)
        out._adj = None
        out._sorted = None
        return out

    def __getattr__(self, name: str):
        # only reached while ``_w`` is unset: a table adopted from arrays
        if name != "_w":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        i, j, w = self._arrays
        self._w = dict(zip(zip(i.tolist(), j.tolist()), w.tolist()))
        del self._arrays
        return self._w

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self._w)

    def weight(self, i: int, j: int) -> float:
        """Weight ``w(i, j)`` (symmetric)."""
        return self._w[_canon(i, j)]

    def key(self, i: int, j: int) -> Key:
        """Strict-total-order key of edge ``(i, j)``."""
        a, b = _canon(i, j)
        return (self._w[(a, b)], a, b)

    def has_edge(self, i: int, j: int) -> bool:
        """Whether the table contains edge ``(i, j)``."""
        return _canon(i, j) in self._w

    def edges(self) -> Iterable[Edge]:
        """All canonical edges (unordered)."""
        return self._w.keys()

    def items(self) -> Iterable[tuple[Edge, float]]:
        """All ``(edge, weight)`` pairs."""
        return self._w.items()

    def total_weight(self, edges: Iterable[Edge]) -> float:
        """Sum of weights over an edge collection."""
        return sum(self._w[_canon(i, j)] for i, j in edges)

    # ------------------------------------------------------------------
    # derived structures (cached)
    # ------------------------------------------------------------------

    def _build_adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self._n)]
        for i, j in self._w:
            adj[i].append(j)
            adj[j].append(i)
        return adj

    def neighbors(self, i: int) -> list[int]:
        """Neighbours of ``i`` in the weight graph (unsorted)."""
        if self._adj is None:
            self._adj = self._build_adjacency()
        return self._adj[i]

    def weight_list(self, i: int) -> list[int]:
        """Node ``i``'s *weight list*: neighbours by decreasing edge key.

        This is the auxiliary list every node keeps in LID ("every node
        keeps these newly formed weights of its adjacent edges in a
        weight list") — PROP messages are sent in exactly this order.
        """
        return sorted(self.neighbors(i), key=lambda j: self.key(i, j), reverse=True)

    def sorted_edges(self) -> list[Edge]:
        """All edges by strictly decreasing key (heaviest first)."""
        if self._sorted is None:
            self._sorted = sorted(self._w, key=lambda e: self.key(*e), reverse=True)
        return list(self._sorted)

    def prefers(self, i: int, j: int, k: int) -> bool:
        """Whether node ``i``'s edge to ``j`` outranks its edge to ``k``."""
        return self.key(i, j) > self.key(i, k)

    def __repr__(self) -> str:
        return f"WeightTable(n={self._n}, m={self.m})"


def satisfaction_weights(ps: PreferenceSystem, exact: bool = False) -> WeightTable:
    """Build the eq.-9 weight table for a preference system.

    Parameters
    ----------
    exact:
        When ``True``, compute each weight with :class:`fractions.Fraction`
        before converting to float.  The rational value is exact; rounding
        to float happens once, which removes any dependence on summation
        order.  Useful in verification tests; the default float path is
        ~3x faster and adequate everywhere else (the total-order key makes
        all greedy decisions robust to float-equal weights).
    """
    weights: dict[Edge, float] = {}
    for i, j in ps.edges():
        if exact:
            w = Fraction(ps.list_length(i) - ps.rank(i, j), ps.list_length(i) * ps.quota(i)) + Fraction(
                ps.list_length(j) - ps.rank(j, i), ps.list_length(j) * ps.quota(j)
            )
            weights[(i, j)] = float(w)
        else:
            weights[(i, j)] = delta_static(ps, i, j) + delta_static(ps, j, i)
    return WeightTable(weights, ps.n)
