"""The array-native instance construction against the loop construction it replaced.

The reference below is the earlier construction, kept as the oracle:

- ``loop_erdos_renyi``: the dense G(n, p) sampler over ``np.triu_indices``
  and a set of edge tuples, the sparse one over the same pair codes;
- ``loop_from_edge_set``: adjacency lists appended edge by edge, then
  sorted;
- ``loop_random_rankings``: each row copied to a fresh ``np.array`` and
  shuffled on its own;
- ``loop_instance``: the per-entry validation loop with its error
  messages, the eager rank dicts and the edge tuple.

Same seed must give the same instance, and every input must be accepted
or rejected with the same message.
"""

from __future__ import annotations

import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.preferences import PreferenceSystem
from repro.experiments import instances
from repro.overlay import topology
from repro.overlay.topology import Topology
from repro.utils.rng import spawn_rng
from repro.utils.validation import InvalidInstanceError

# ---------------------------------------------------------------------------
# the loop reference
# ---------------------------------------------------------------------------


def loop_from_edge_set(n, edges, name, positions=None):
    adjacency = [[] for _ in range(n)]
    for i, j in edges:
        adjacency[i].append(j)
        adjacency[j].append(i)
    for lst in adjacency:
        lst.sort()
    return Topology(adjacency, positions, name)


def loop_erdos_renyi(n, p, rng):
    total_pairs = n * (n - 1) // 2
    if total_pairs <= topology._ER_DENSE_PAIR_LIMIT:
        iu, ju = np.triu_indices(n, k=1)
        mask = rng.random(iu.shape[0]) < p
        edges = {(int(a), int(b)) for a, b in zip(iu[mask], ju[mask])}
        return loop_from_edge_set(n, edges, f"er(n={n},p={p})")
    m = int(rng.binomial(total_pairs, p))
    codes = np.empty(0, dtype=np.int64)
    while codes.shape[0] < m:
        need = m - codes.shape[0]
        draw = max(1024, int(2.3 * need))
        a = rng.integers(0, n, size=draw, dtype=np.int64)
        b = rng.integers(0, n, size=draw, dtype=np.int64)
        keep = a < b
        codes = np.unique(np.concatenate([codes, a[keep] * n + b[keep]]))
    if codes.shape[0] > m:
        codes = rng.choice(codes, size=m, replace=False)
    edges = {(int(c // n), int(c % n)) for c in codes}
    return loop_from_edge_set(n, edges, f"er(n={n},p={p})")


def loop_random_rankings(topo, rng):
    rankings = {}
    for i in range(topo.n):
        neigh = np.array(topo.adjacency[i], dtype=int)
        rng.shuffle(neigh)
        rankings[i] = [int(x) for x in neigh]
    return rankings


def loop_instance(rankings, quota):
    """The loop constructor: ``(rankings, ranks, edges, quotas)`` or the error."""
    if isinstance(rankings, dict):
        items = dict(rankings)
    else:
        items = {i: list(lst) for i, lst in enumerate(rankings)}
    if not items:
        raise InvalidInstanceError("instance must contain at least one node")
    nodes = sorted(items)
    if nodes != list(range(len(nodes))):
        raise InvalidInstanceError(
            f"nodes must be consecutive integers 0..n-1, got {nodes[:10]}..."
        )
    n = len(nodes)
    lists = tuple(tuple(int(j) for j in items[i]) for i in nodes)
    for i, lst in enumerate(lists):
        seen = set()
        for j in lst:
            if j == i:
                raise InvalidInstanceError(f"node {i} ranks itself")
            if not (0 <= j < n):
                raise InvalidInstanceError(f"node {i} ranks unknown node {j}")
            if j in seen:
                raise InvalidInstanceError(f"node {i} ranks node {j} twice")
            seen.add(j)
    neigh_sets = [set(lst) for lst in lists]
    for i, s in enumerate(neigh_sets):
        for j in s:
            if i not in neigh_sets[j]:
                raise InvalidInstanceError(
                    f"adjacency asymmetric: {i} ranks {j} but {j} does not rank {i}"
                )
    ranks = tuple({j: r for r, j in enumerate(lst)} for lst in lists)
    edges = tuple(sorted((i, j) for i in range(n) for j in lists[i] if i < j))
    quotas = tuple(min(quota, len(lst)) if lst else 0 for lst in lists)
    return lists, ranks, edges, quotas


def loop_random_preference_instance(n, p, quota, seed):
    rng = spawn_rng(seed, "random-pref", str(n), str(p))
    topo = loop_erdos_renyi(n, p, rng)
    return topo, loop_random_rankings(topo, rng)


# ---------------------------------------------------------------------------
# instance identity
# ---------------------------------------------------------------------------


def assert_same_instance(ps, rankings, quota):
    lists, ranks, edges, quotas = loop_instance(rankings, quota)
    assert ps == PreferenceSystem(rankings, quota)
    assert tuple(ps.neighbors(i) for i in ps.nodes()) == lists
    assert ps.quotas == quotas
    assert ps.edges() == edges
    assert ps.m == len(edges)
    for i in ps.nodes():
        assert {j: ps.rank(i, j) for j in lists[i]} == ranks[i]
    twin = pickle.loads(pickle.dumps(ps))
    assert twin == ps
    assert twin.edges() == edges
    assert twin.quotas == quotas
    assert all(twin.rank(i, j) == r for i in ps.nodes() for j, r in ranks[i].items())


SEEDS = (0, 1, 7)


class TestInstanceIdentity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n, p", [(60, 0.3), (400, 0.02), (1500, 8 / 1499)])
    def test_random_preference_instance_dense(self, n, p, seed):
        assert n * (n - 1) // 2 <= topology._ER_DENSE_PAIR_LIMIT
        ps = instances.random_preference_instance(n, p, 3, seed)
        rng = spawn_rng(seed, "random-pref", str(n), str(p))
        topo = topology.erdos_renyi(n, p, rng)
        ref_topo, rankings = loop_random_preference_instance(n, p, 3, seed)
        assert topo.adjacency == ref_topo.adjacency
        assert topo.name == ref_topo.name
        assert_same_instance(ps, rankings, 3)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_preference_instance_sparse(self, seed):
        n, p = 8000, 6 / 7999
        assert n * (n - 1) // 2 > topology._ER_DENSE_PAIR_LIMIT
        ps = instances.random_preference_instance(n, p, 2, seed)
        ref_topo, rankings = loop_random_preference_instance(n, p, 2, seed)
        topo = topology.erdos_renyi(n, p, spawn_rng(seed, "random-pref", str(n), str(p)))
        assert topo.adjacency == ref_topo.adjacency
        assert_same_instance(ps, rankings, 2)

    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_both_sides_of_the_dense_limit(self, monkeypatch, side, seed):
        # the limit at exactly this n's pair count (dense) and one below (sparse)
        n, p = 300, 0.05
        monkeypatch.setattr(topology, "_ER_DENSE_PAIR_LIMIT", n * (n - 1) // 2 - side)
        ps = instances.random_preference_instance(n, p, 2, seed)
        ref_topo, rankings = loop_random_preference_instance(n, p, 2, seed)
        topo = topology.erdos_renyi(n, p, spawn_rng(seed, "random-pref", str(n), str(p)))
        assert topo.adjacency == ref_topo.adjacency
        assert_same_instance(ps, rankings, 2)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("family", instances.FAMILIES)
    def test_family_instance(self, monkeypatch, family, seed):
        n = 250
        ps = instances.family_instance(family, n, 2, seed)
        topo = instances.topology_for_family(family, n, spawn_rng(seed, "family", family, str(n)))
        rng = spawn_rng(seed, "family", family, str(n))
        with monkeypatch.context() as mp:
            mp.setattr(topology, "_from_edge_set", loop_from_edge_set)
            mp.setattr(instances, "erdos_renyi", loop_erdos_renyi)
            ref_topo = instances.topology_for_family(family, n, rng)
        assert topo.adjacency == ref_topo.adjacency
        assert topo.name == ref_topo.name
        if ref_topo.positions is None:
            assert topo.positions is None
        else:
            assert np.array_equal(topo.positions, ref_topo.positions)
        assert_same_instance(ps, loop_random_rankings(ref_topo, rng), 2)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_weighted_instance(self, monkeypatch, seed):
        wt, quotas = instances.random_weighted_instance(300, 0.04, seed)
        with monkeypatch.context() as mp:
            mp.setattr(instances, "erdos_renyi", loop_erdos_renyi)
            ref_wt, ref_quotas = instances.random_weighted_instance(300, 0.04, seed)
        assert quotas == ref_quotas
        assert list(wt.items()) == list(ref_wt.items())
        twin = pickle.loads(pickle.dumps(wt))
        assert list(twin.items()) == list(ref_wt.items())

    def test_dense_path_does_not_materialise_triangle_indices(self):
        # the draws take 8 bytes a pair and their mask 1; the index
        # arrays of np.triu_indices would add 16 more
        n = 2500
        pairs = n * (n - 1) // 2
        tracemalloc.start()
        try:
            topology.erdos_renyi(n, 4 / (n - 1), np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * pairs


# ---------------------------------------------------------------------------
# validation parity
# ---------------------------------------------------------------------------

#: "retarget" (an entry points elsewhere) and "repeat" (an entry becomes a
#: copy of another) keep the entry count even, as a valid instance's is
CORRUPTIONS = (
    "self", "range", "negative", "duplicate", "drop-reverse", "retarget", "repeat", "ids",
)
FORMS = ("mapping", "list", "tuple", "int64-rows", "int32-rows", "mixed")


@st.composite
def corrupted_rankings(draw):
    """Valid random lists, then up to three corruptions, in one input form."""
    n = draw(st.integers(1, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    rows = [[] for _ in range(n)]
    for i, j in edges:
        rows[i].append(j)
        rows[j].append(i)
    rows = [draw(st.permutations(r)) for r in rows]
    keys = list(range(n))
    for kind in draw(st.lists(st.sampled_from(CORRUPTIONS), max_size=3)):
        i = draw(st.integers(0, n - 1))
        at = draw(st.integers(0, len(rows[i])))
        if kind == "self":
            rows[i].insert(at, i)
        elif kind == "range":
            rows[i].insert(at, n + draw(st.integers(0, 3)))
        elif kind == "negative":
            rows[i].insert(at, -draw(st.integers(1, 3)))
        elif kind == "duplicate" and rows[i]:
            rows[i].insert(at, draw(st.sampled_from(rows[i])))
        elif kind == "drop-reverse" and rows[i]:
            rows[i].remove(draw(st.sampled_from(rows[i])))
        elif kind == "retarget" and rows[i]:
            k = draw(st.integers(0, len(rows[i]) - 1))
            rows[i][k] = draw(st.integers(0, n - 1))
        elif kind == "repeat" and len(rows[i]) > 1:
            k = draw(st.integers(0, len(rows[i]) - 1))
            rows[i][k] = draw(st.sampled_from(rows[i]))
        elif kind == "ids":
            keys[i] = n + draw(st.integers(0, 3))
    form = draw(st.sampled_from(FORMS))
    if form == "mapping" or keys != list(range(n)):
        return dict(zip(keys, rows))
    if form == "tuple":
        return tuple(map(tuple, rows))
    if form == "int64-rows":
        return [np.array(r, dtype=np.int64) for r in rows]
    if form == "int32-rows":
        return [np.array(r, dtype=np.int32) for r in rows]
    if form == "mixed":
        return [np.array(r, dtype=np.int64) if k % 2 else r for k, r in enumerate(rows)]
    return rows


def outcome(build):
    try:
        return build()
    except InvalidInstanceError as exc:
        return str(exc)


class TestValidationParity:
    @settings(max_examples=300, deadline=None)
    @given(corrupted_rankings(), st.integers(1, 3))
    def test_same_verdict_and_message(self, rankings, quota):
        expected = outcome(lambda: loop_instance(rankings, quota)[0])
        got = outcome(
            lambda: tuple(map(PreferenceSystem(rankings, quota).neighbors, range(len(rankings))))
        )
        assert got == expected

    @pytest.mark.parametrize(
        "rankings, message",
        [
            ({0: [1, 0, 0], 1: [0]}, "node 0 ranks itself"),
            ({0: [1, 1, 9], 1: [0]}, "node 0 ranks node 1 twice"),
            ({0: [1, 9, 1], 1: [0]}, "node 0 ranks unknown node 9"),
            ({0: [1, 2], 1: [0], 2: [5]}, "node 2 ranks unknown node 5"),
            ({0: [2, 1], 1: [], 2: [0]}, "adjacency asymmetric: 0 ranks 1 but 1 does not rank 0"),
            ({0: [], 1: [2], 2: []}, "adjacency asymmetric: 1 ranks 2 but 2 does not rank 1"),
            ({0: [1, 2], 1: [0, 2], 2: [1, 1]}, "node 2 ranks node 1 twice"),
            ({0: [1, 2], 1: [0, 2], 2: [1, 0], 3: [4, 4], 4: [3, 3]}, "node 3 ranks node 4 twice"),
            ({0: [1], 1: [2], 2: [0]}, "adjacency asymmetric: 0 ranks 1 but 1 does not rank 0"),
            ([[1], [0, 2], [1, 1]], "node 2 ranks node 1 twice"),
            ([[1, 2], [0, 2], [1, 0, -1]], "node 2 ranks unknown node -1"),
            ([np.array([1, 2**64 - 1], dtype=np.uint64), [0]],
             f"node 0 ranks unknown node {2**64 - 1}"),
            ([[1, 2**70], [0]], f"node 0 ranks unknown node {2**70}"),
            ([[1, -(2**70)], [0]], f"node 0 ranks unknown node {-(2**70)}"),
        ],
    )
    def test_first_offender_in_loop_order(self, rankings, message):
        assert outcome(lambda: loop_instance(rankings, 1)) == message
        assert outcome(lambda: PreferenceSystem(rankings, 1)) == message

    def test_asymmetry_reported_in_set_order(self):
        # node 0 lists 3 before 40, but a set of {3, 40} visits 40 first
        rankings = {i: [] for i in range(41)}
        rankings[0] = [3, 40]
        message = "adjacency asymmetric: 0 ranks 40 but 40 does not rank 0"
        assert outcome(lambda: loop_instance(rankings, 1)) == message
        assert outcome(lambda: PreferenceSystem(rankings, 1)) == message
