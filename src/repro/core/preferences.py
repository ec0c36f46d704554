"""Problem model of the paper (Section 2): graphs with preference lists.

A peer-to-peer overlay is an undirected graph ``G(V, E)``.  Each node ``i``
keeps a *preference list* ``L_i``: a strict ranking of its entire
neighbourhood ``Γ_i``.  The rank function ``R_i(j)`` gives the position of
neighbour ``j`` in ``i``'s list, with ``R_i(.) ∈ {0, 1, ..., |L_i|-1}`` and
``0`` denoting the most desirable neighbour.  Each node also carries a
connection quota ``b_i ≤ |L_i|``: the maximum number of matched
connections it may hold at any time.

:class:`PreferenceSystem` is the immutable instance object consumed by
every algorithm in the library (LID, LIC, exact solvers, baselines).
Nodes are integers ``0..n-1``; callers with richer peer objects map
through :mod:`repro.overlay.builder`.
"""

from __future__ import annotations

from itertools import chain, islice, repeat
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.utils.validation import InvalidInstanceError

__all__ = ["PreferenceSystem"]


def _integral_type(kind: type) -> bool:
    """The ``operator.index`` rule :func:`~repro.utils.validation.check_quotas` applies."""
    return not issubclass(kind, bool) and hasattr(kind, "__index__")


def _flat_entries(rows: list, n: int, total: int) -> np.ndarray:
    """All preference lists concatenated into one ``int64`` array.

    Entries must be integral: Python or NumPy integers, or integer
    arrays.  The first entry that is not (a float, a bool) is rejected,
    naming its node.  Values that do not fit ``int64`` become ``-1`` or
    ``n``, still out of range; error messages quote the original entry.
    """
    if (
        set(map(type, rows)) == {np.ndarray}
        and set(map(attrgetter("ndim"), rows)) == {1}
        and all(dt.kind in "iu" for dt in set(map(attrgetter("dtype"), rows)))
    ):
        # uint64 entries past int64 wrap negative: out of range either way
        return np.concatenate(rows, dtype=np.int64, casting="unsafe")
    if not all(map(_integral_type, set(map(type, chain.from_iterable(rows))))):
        for i, row in enumerate(rows):
            for j in row:
                if not _integral_type(type(j)):
                    raise InvalidInstanceError(f"node {i} ranks non-integer entry {j!r}")
    try:
        return np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=total)
    except OverflowError:
        clamped = (min(max(int(j), -1), n) for j in chain.from_iterable(rows))
        return np.fromiter(clamped, dtype=np.int64, count=total)


class PreferenceSystem:
    """An instance of the generalised stable roommates / b-matching model.

    Parameters
    ----------
    rankings:
        ``rankings[i]`` is the full preference list of node ``i``: a
        sequence of neighbour ids in strictly decreasing desirability
        (index 0 = most preferred).  The induced adjacency must be
        symmetric: ``j in rankings[i]`` iff ``i in rankings[j]``.
        Entries must be integers (Python or NumPy; rows may be integer
        arrays); floats and bools are rejected.
    quotas:
        ``quotas[i] = b_i``.  Accepts a mapping, a sequence, or a single
        int applied uniformly.  Following the paper, values larger than
        ``|L_i|`` are clamped to ``|L_i|`` ("we are assuming b_i ≤ |L_i|,
        otherwise we can easily take b_i = |L_i|").  Quotas must be
        >= 1 except for isolated nodes, whose quota is 0.

    Notes
    -----
    The object is treated as immutable after construction; all algorithm
    state lives elsewhere.  The lists are stored concatenated in one
    read-only ``int64`` array (:meth:`flat_rows`): validation runs on
    it and :class:`~repro.core.fast.FastInstance` lowers from it.  The
    per-node tuples, the rank lookup tables and the sorted edge tuple
    are derived from it on first use, after which ``rank(i, j)`` is an
    O(1) dict lookup.
    """

    __slots__ = ("_rankings", "_ranks", "_quotas", "_edges", "_n", "_deg", "_nbr")

    def __init__(
        self,
        rankings: Mapping[int, Sequence[int]] | Sequence[Sequence[int]],
        quotas: Mapping[int, int] | Sequence[int] | int,
    ):
        if isinstance(rankings, Mapping):
            items = dict(rankings)
            nodes = sorted(items)
            if nodes != list(range(len(nodes))):
                raise InvalidInstanceError(
                    f"nodes must be consecutive integers 0..n-1, got {nodes[:10]}..."
                )
            rows = [items[i] for i in nodes]
        else:
            rows = list(rankings)
        if not rows:
            raise InvalidInstanceError("instance must contain at least one node")
        if not set(map(type, rows)) <= {list, tuple, np.ndarray}:
            rows = [r if isinstance(r, (list, tuple, np.ndarray)) else list(r) for r in rows]
        n = self._n = len(rows)
        deg = np.fromiter(map(len, rows), dtype=np.int64, count=n)
        nbr = _flat_entries(rows, n, int(deg.sum()))
        self._validate_entries(rows, deg, nbr)
        deg.flags.writeable = False
        nbr.flags.writeable = False
        self._deg = deg
        self._nbr = nbr
        self._quotas = self._normalise_quotas(quotas)

    def __getattr__(self, name: str):
        # only reached while a derived slot is still unset
        if name == "_rankings":
            entries = iter(self._nbr.tolist())
            self._rankings = tuple(
                map(tuple, map(islice, repeat(entries), self._deg.tolist()))
            )
            return self._rankings
        if name == "_ranks":
            self._ranks = tuple(
                dict(zip(lst, range(len(lst)))) for lst in self._rankings
            )
            return self._ranks
        if name == "_edges":
            own = np.repeat(np.arange(self._n, dtype=np.int64), self._deg)
            fwd = own < self._nbr
            codes = np.sort(own[fwd] * self._n + self._nbr[fwd])
            self._edges = tuple(
                zip((codes // self._n).tolist(), (codes % self._n).tolist())
            )
            return self._edges
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def __reduce__(self):
        return (type(self), (self._rankings, self._quotas))

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_scores(
        cls,
        adjacency: Mapping[int, Iterable[int]] | Sequence[Iterable[int]],
        score: Callable[[int, int], float],
        quotas: Mapping[int, int] | Sequence[int] | int,
    ) -> "PreferenceSystem":
        """Build preference lists by ranking each neighbourhood by a score.

        ``score(i, j)`` is node ``i``'s private suitability value for
        neighbour ``j`` — higher is better.  Ties are broken by neighbour
        id (ascending) so construction is deterministic.
        """
        if isinstance(adjacency, Mapping):
            adj = {i: list(v) for i, v in adjacency.items()}
        else:
            adj = {i: list(v) for i, v in enumerate(adjacency)}
        rankings = {
            i: sorted(neigh, key=lambda j: (-score(i, j), j)) for i, neigh in adj.items()
        }
        return cls(rankings, quotas)

    def _normalise_quotas(
        self, quotas: Mapping[int, int] | Sequence[int] | int
    ) -> tuple[int, ...]:
        if isinstance(quotas, bool):
            raise InvalidInstanceError("quotas must be int-valued, got bool")
        if isinstance(quotas, int):
            if quotas >= 1:
                # clamp to the list length; isolated nodes get 0
                return tuple(np.minimum(self._deg, min(quotas, len(self._nbr))).tolist())
            values = [quotas] * self._n
        elif isinstance(quotas, Mapping):
            missing = [i for i in range(self._n) if i not in quotas]
            if missing:
                raise InvalidInstanceError(f"quotas missing for nodes {missing[:10]}")
            values = [int(quotas[i]) for i in range(self._n)]
        else:
            values = [int(q) for q in quotas]
            if len(values) != self._n:
                raise InvalidInstanceError(
                    f"quota sequence has length {len(values)}, expected {self._n}"
                )
        deg = self._deg.tolist()
        if min(values) < 1:
            for i, (q, d) in enumerate(zip(values, deg)):
                if q < 1 and d:
                    raise InvalidInstanceError(f"quota of node {i} must be >= 1, got {q}")
        # clamp to the list length; isolated nodes get 0
        return tuple(map(max, map(min, values, deg), repeat(0)))

    def _validate_entries(self, rows: list, deg: np.ndarray, nbr: np.ndarray) -> None:
        """Self-rank, range, duplicate and symmetry checks in one array pass.

        Every valid directed entry ``i → j`` gets the code
        ``2·(min·n + max) + [i > j]``.  The lists are valid exactly when
        the sorted codes come in pairs ``(2c, 2c + 1)``: each undirected
        edge listed once from each side, nothing twice, nothing
        unanswered.  Only when that one sort fails are the entries
        scanned for the offender the per-entry checks would meet first
        (:meth:`_raise_first_violation`).
        """
        n = self._n
        own = np.repeat(np.arange(n, dtype=np.int64), deg)
        if len(nbr) % 2 == 0 and ((nbr >= 0) & (nbr < n) & (nbr != own)).all():
            codes = (np.minimum(own, nbr) * n + np.maximum(own, nbr)) * 2
            codes += own > nbr
            codes.sort()
            low = codes[0::2]
            if not (low & 1).any() and np.array_equal(low + 1, codes[1::2]):
                return
        self._raise_first_violation(rows, deg, own, nbr)

    def _raise_first_violation(
        self, rows: list, deg: np.ndarray, own: np.ndarray, nbr: np.ndarray
    ) -> None:
        """Raise for the first offending entry, in node-then-list order.

        Per entry the checks run self-rank, then range, then duplicate;
        only when every entry passes them is symmetry checked, node by
        node, each node's neighbours visited in ``set`` order.
        """
        n = self._n
        start = np.zeros(n, dtype=np.int64)
        np.cumsum(deg[:-1], out=start[1:])
        self_rank = nbr == own
        unknown = (nbr < 0) | (nbr >= n)
        # a later copy of an in-range entry of the same list: the stable
        # sort keeps equal codes in list order
        codes = np.where(self_rank | unknown, -1 - np.arange(len(nbr)), own * n + nbr)
        order = np.argsort(codes, kind="stable")
        repeated = np.zeros(len(nbr), dtype=bool)
        repeated[order[1:]] = codes[order[1:]] == codes[order[:-1]]
        bad = np.flatnonzero(self_rank | unknown | repeated)
        if len(bad):
            k = int(bad[0])
            i = int(own[k])
            if self_rank[k]:
                raise InvalidInstanceError(f"node {i} ranks itself")
            j = int(rows[i][k - int(start[i])])
            if unknown[k]:
                raise InvalidInstanceError(f"node {i} ranks unknown node {j}")
            raise InvalidInstanceError(f"node {i} ranks node {j} twice")
        listed = np.sort(own * n + nbr)
        reverse = nbr * n + own
        at = np.minimum(np.searchsorted(listed, reverse), len(listed) - 1)
        unanswered = np.flatnonzero(listed[at] != reverse)
        i = int(own[unanswered[0]])
        row = nbr[start[i] : start[i] + deg[i]].tolist()
        for j in set(row):
            if i not in set(nbr[start[j] : start[j] + deg[j]].tolist()):
                raise InvalidInstanceError(
                    f"adjacency asymmetric: {i} ranks {j} but {j} does not rank {i}"
                )

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of nodes ``|V|``."""
        return self._n

    @property
    def m(self) -> int:
        """Number of undirected edges ``|E|``."""
        return len(self._nbr) // 2

    def nodes(self) -> range:
        """Iterable of node ids ``0..n-1``."""
        return range(self._n)

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All undirected edges as ``(i, j)`` with ``i < j``."""
        return self._edges

    def flat_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """``(deg, nbr)``: list lengths and all lists concatenated in node order.

        Both are read-only ``int64`` arrays; node ``i``'s list is
        ``nbr[sum(deg[:i]) : sum(deg[:i + 1])]``.
        """
        return self._deg, self._nbr

    def neighbors(self, i: int) -> tuple[int, ...]:
        """Neighbourhood ``Γ_i`` in preference order (best first)."""
        return self._rankings[i]

    def preference_list(self, i: int) -> tuple[int, ...]:
        """Alias of :meth:`neighbors` matching the paper's ``L_i``."""
        return self._rankings[i]

    def degree(self, i: int) -> int:
        """Degree ``d_i`` (also the preference-list length ``|L_i|``)."""
        return len(self._rankings[i])

    def list_length(self, i: int) -> int:
        """``|L_i|`` — identical to degree, kept for formula readability."""
        return len(self._rankings[i])

    def rank(self, i: int, j: int) -> int:
        """Rank ``R_i(j)`` of neighbour ``j`` in node ``i``'s list (0 = best)."""
        try:
            return self._ranks[i][j]
        except KeyError:
            raise KeyError(f"node {j} is not a neighbour of node {i}") from None

    def quota(self, i: int) -> int:
        """Connection quota ``b_i``."""
        return self._quotas[i]

    @property
    def quotas(self) -> tuple[int, ...]:
        """All quotas as a tuple indexed by node id."""
        return self._quotas

    @property
    def b_max(self) -> int:
        """Maximum quota ``b_max`` over all nodes (1 if all nodes isolated)."""
        return max(self._quotas, default=1) or 1

    def has_edge(self, i: int, j: int) -> bool:
        """Whether ``(i, j)`` is a potential connection in ``E``."""
        return j in self._ranks[i]

    def top(self, i: int, k: int) -> tuple[int, ...]:
        """Node ``i``'s ``k`` most preferred neighbours."""
        return self._rankings[i][:k]

    # ------------------------------------------------------------------
    # structural analysis
    # ------------------------------------------------------------------

    def preference_cycles_digraph(self) -> dict[tuple[int, int], list[tuple[int, int]]]:
        """Directed "pivot" graph whose cycles are preference cycles.

        Vertices are directed edges ``(u, i)`` of ``G``.  There is an arc
        ``(u, i) -> (i, v)`` whenever node ``i`` strictly prefers ``v`` to
        ``u``.  A directed cycle in this graph corresponds exactly to a
        cyclic sequence of nodes ``n_0, ..., n_{k-1}`` in which every node
        prefers its successor to its predecessor — the destabilising
        structure of Gai et al. [3] and the communication cycle ruled out
        by Lemma 5 for symmetric weights.
        """
        arcs: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for i in range(self._n):
            lst = self._rankings[i]
            # v appears before u in lst  <=>  i prefers v to u
            for pos_u, u in enumerate(lst):
                arcs[(u, i)] = [(i, v) for v in lst[:pos_u]]
        return arcs

    def is_acyclic(self) -> bool:
        """Check the acyclic-preferences condition of Gai et al. [3].

        Returns ``True`` when no preference cycle exists, i.e. there is no
        node sequence ``n_0, ..., n_{k-1}`` (k >= 3, cyclically) where each
        ``n_i`` strictly prefers ``n_{i+1}`` to ``n_{i-1}``.  Acyclicity is
        the condition under which best-response b-matching dynamics are
        guaranteed to stabilise; the paper's LID sidesteps it entirely via
        symmetric weights.
        """
        arcs = self.preference_cycles_digraph()
        # iterative three-colour DFS over the pivot digraph
        WHITE, GREY, BLACK = 0, 1, 2
        colour = {v: WHITE for v in arcs}
        for root in arcs:
            if colour[root] != WHITE:
                continue
            stack: list[tuple[tuple[int, int], int]] = [(root, 0)]
            colour[root] = GREY
            while stack:
                v, idx = stack[-1]
                out = arcs[v]
                if idx < len(out):
                    stack[-1] = (v, idx + 1)
                    w = out[idx]
                    c = colour[w]
                    if c == GREY:
                        return False
                    if c == WHITE:
                        colour[w] = GREY
                        stack.append((w, 0))
                else:
                    colour[v] = BLACK
                    stack.pop()
        return True

    # ------------------------------------------------------------------
    # dunder / misc
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PreferenceSystem):
            return NotImplemented
        return (
            self._quotas == other._quotas
            and np.array_equal(self._deg, other._deg)
            and np.array_equal(self._nbr, other._nbr)
        )

    def __hash__(self) -> int:
        return hash((self._rankings, self._quotas))

    def __repr__(self) -> str:
        return f"PreferenceSystem(n={self._n}, m={self.m}, b_max={self.b_max})"

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._n))

    def __len__(self) -> int:
        return self._n
