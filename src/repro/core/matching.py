"""Many-to-many matchings (b-matchings) and their accounting.

A *b-matching* is a subset ``M ⊆ E`` of potential-connection edges such
that every node ``i`` is an endpoint of at most ``b_i`` edges of ``M``.
:class:`Matching` stores such a subset as per-node connection sets,
supports incremental mutation (used by the best-response baselines and
the churn machinery) and provides the satisfaction / weight accounting
used throughout the experiments.
"""

from __future__ import annotations

from itertools import chain, islice, repeat
from typing import Iterable, Iterator

import numpy as np

from repro.core.preferences import PreferenceSystem
from repro.core.satisfaction import (
    connection_list,
    satisfaction_vector,
    total_satisfaction,
)
from repro.core.weights import WeightTable
from repro.utils.validation import InvalidMatchingError

__all__ = ["Matching"]

Edge = tuple[int, int]


def _canon(i: int, j: int) -> Edge:
    return (i, j) if i < j else (j, i)


class Matching:
    """A mutable many-to-many matching over ``n`` nodes.

    The object enforces only *structural* sanity (no self-loops, no
    duplicate edges, endpoints in range); quota and edge-existence
    feasibility against a concrete :class:`PreferenceSystem` is checked by
    :meth:`validate`, so that the same class can hold intermediate states
    of iterative algorithms.
    """

    __slots__ = ("_n", "_conn")

    def __init__(self, n: int, edges: Iterable[Edge] = ()):
        if n <= 0:
            raise InvalidMatchingError(f"n must be positive, got {n}")
        self._n = n
        self._conn: list[set[int]] = [set() for _ in range(n)]
        for i, j in edges:
            self.add(i, j)

    @classmethod
    def from_trusted_arrays(cls, n: int, i_arr, j_arr) -> "Matching":
        """Bulk-build from parallel endpoint arrays, skipping per-edge checks.

        The fast backend's greedy selection emits canonical, duplicate-free,
        in-range edges by construction; re-validating each one through
        :meth:`add` is pure overhead on the hot path.  Callers must
        guarantee those invariants.  Connection sets are materialised by
        sorting the directed edge list once and slicing per node
        (``__new__`` sidesteps ``__init__``'s throwaway empty sets).
        """
        if n <= 0:
            raise InvalidMatchingError(f"n must be positive, got {n}")
        out = cls.__new__(cls)
        out._n = n
        if len(i_arr) == 0:
            out._conn = [set() for _ in range(n)]
            return out
        nodes = np.concatenate((i_arr, j_arr))
        partners = np.concatenate((j_arr, i_arr))
        srt = np.argsort(nodes)
        partners_sorted = iter(partners[srt].tolist())
        counts = np.bincount(nodes, minlength=n).tolist()
        out._conn = list(map(set, map(islice, repeat(partners_sorted), counts)))
        return out

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def add(self, i: int, j: int) -> None:
        """Add edge ``(i, j)``; raises if present or malformed."""
        if i == j:
            raise InvalidMatchingError(f"self-loop ({i},{j})")
        if not (0 <= i < self._n and 0 <= j < self._n):
            raise InvalidMatchingError(f"edge ({i},{j}) outside 0..{self._n - 1}")
        if j in self._conn[i]:
            raise InvalidMatchingError(f"edge ({i},{j}) already in matching")
        self._conn[i].add(j)
        self._conn[j].add(i)

    def remove(self, i: int, j: int) -> None:
        """Remove edge ``(i, j)``; raises if absent."""
        if j not in self._conn[i]:
            raise InvalidMatchingError(f"edge ({i},{j}) not in matching")
        self._conn[i].discard(j)
        self._conn[j].discard(i)

    def discard(self, i: int, j: int) -> bool:
        """Remove edge ``(i, j)`` if present; returns whether it was."""
        if j in self._conn[i]:
            self.remove(i, j)
            return True
        return False

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of nodes the matching is defined over."""
        return self._n

    def has_edge(self, i: int, j: int) -> bool:
        """Whether ``(i, j)`` is matched."""
        return 0 <= i < self._n and j in self._conn[i]

    def connections(self, i: int) -> frozenset[int]:
        """The matched neighbours of node ``i`` (the unordered ``C_i``)."""
        return frozenset(self._conn[i])

    def connection_list(self, ps: PreferenceSystem, i: int) -> list[int]:
        """``C_i`` ordered by decreasing preference (index = ``Q_i``)."""
        return connection_list(ps, i, self._conn[i])

    def degree(self, i: int) -> int:
        """Number of matched connections ``c_i`` of node ``i``."""
        return len(self._conn[i])

    def size(self) -> int:
        """Number of matched edges ``|M|``."""
        return sum(len(s) for s in self._conn) // 2

    def edges(self) -> list[Edge]:
        """Matched edges, canonical ``(i, j)`` with ``i < j``, sorted."""
        return sorted(
            (i, j) for i in range(self._n) for j in self._conn[i] if i < j
        )

    def edge_set(self) -> frozenset[Edge]:
        """Matched edges as a frozenset of canonical pairs."""
        return frozenset(
            (i, j) for i in range(self._n) for j in self._conn[i] if i < j
        )

    def adjacency(self) -> list[frozenset[int]]:
        """Connection sets for all nodes (for satisfaction helpers)."""
        return [frozenset(s) for s in self._conn]

    def copy(self) -> "Matching":
        """Deep copy."""
        out = Matching(self._n)
        out._conn = [set(s) for s in self._conn]
        return out

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def total_weight(self, wt: WeightTable) -> float:
        """Sum of edge weights ``w(M)``."""
        return wt.total_weight(self.edges())

    def satisfaction_vector(self, ps: PreferenceSystem, kind: str = "full"):
        """Per-node satisfaction under eq. 1 (``full``) or eq. 6 (``static``)."""
        return satisfaction_vector(ps, self.adjacency(), kind)

    def total_satisfaction(self, ps: PreferenceSystem, kind: str = "full") -> float:
        """Network-wide satisfaction ``Σ_i S_i``."""
        return total_satisfaction(ps, self.adjacency(), kind)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def validate(self, ps: PreferenceSystem) -> None:
        """Raise :class:`InvalidMatchingError` unless feasible for ``ps``.

        Checks (a) every matched edge is a potential connection in ``E``
        and (b) every node respects its quota ``b_i``.  Both run as one
        array pass over the instance's flat lists; the node-by-node scan
        only runs to name the first offending node.
        """
        n = self._n
        if ps.n != n:
            raise InvalidMatchingError(
                f"matching over {n} nodes, instance has {ps.n}"
            )
        counts = np.fromiter(map(len, self._conn), dtype=np.int64, count=n)
        bad = counts > np.asarray(ps.quotas, dtype=np.int64)
        deg, nbr = ps.flat_rows()
        nodes = np.arange(n, dtype=np.int64)
        owners = np.repeat(nodes, counts)
        partners = np.fromiter(
            chain.from_iterable(self._conn), dtype=np.int64, count=len(owners)
        )
        # the sentinel n*n sorts above every code, so lookups stay in range
        listed = np.sort(np.append(np.repeat(nodes, deg) * n + nbr, n * n))
        matched = owners * n + partners
        bad[owners[listed[np.searchsorted(listed, matched)] != matched]] = True
        if bad.any():
            i = int(bad.argmax())
            if len(self._conn[i]) > ps.quota(i):
                raise InvalidMatchingError(
                    f"node {i} has {len(self._conn[i])} connections, quota {ps.quota(i)}"
                )
            for j in self._conn[i]:
                if not ps.has_edge(i, j):
                    raise InvalidMatchingError(
                        f"matched edge ({i},{j}) is not a potential connection"
                    )

    def is_feasible(self, ps: PreferenceSystem) -> bool:
        """Boolean form of :meth:`validate`."""
        try:
            self.validate(ps)
        except InvalidMatchingError:
            return False
        return True

    def residual_quota(self, ps: PreferenceSystem, i: int) -> int:
        """Remaining quota ``b_i - c_i`` of node ``i``."""
        return ps.quota(i) - len(self._conn[i])

    def is_maximal(self, ps: PreferenceSystem) -> bool:
        """Whether no unmatched potential edge could still be added.

        Greedy outputs are always maximal; useful as a cheap certificate
        in tests.
        """
        for i, j in ps.edges():
            if (
                j not in self._conn[i]
                and len(self._conn[i]) < ps.quota(i)
                and len(self._conn[j]) < ps.quota(j)
            ):
                return False
        return True

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matching):
            return NotImplemented
        return self._n == other._n and self._conn == other._conn

    def __hash__(self) -> int:
        return hash((self._n, self.edge_set()))

    def __len__(self) -> int:
        return self.size()

    def __iter__(self) -> Iterator[Edge]:
        return iter(self.edges())

    def __contains__(self, edge: Edge) -> bool:
        i, j = edge
        return self.has_edge(i, j)

    def __repr__(self) -> str:
        return f"Matching(n={self._n}, size={self.size()})"
