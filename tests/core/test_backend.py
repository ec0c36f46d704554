"""The backend selector: reference and fast must be interchangeable."""

import pytest

from repro.core.backend import (
    BACKENDS,
    FastBackend,
    ReferenceBackend,
    ShardedBackend,
    get_backend,
    resolve_backend_name,
)
from repro.core.lic import solve_modified_bmatching

from repro.testing.strategies import random_ps


class TestRegistry:
    def test_names(self):
        assert set(BACKENDS) == {"reference", "fast", "sharded"}

    def test_get_backend_types(self):
        assert isinstance(get_backend(), ReferenceBackend)
        assert isinstance(get_backend("reference"), ReferenceBackend)
        assert isinstance(get_backend("fast"), FastBackend)
        assert isinstance(get_backend("sharded"), ShardedBackend)

    def test_resolve_normalises(self):
        assert resolve_backend_name("FAST") == "fast"
        assert resolve_backend_name(" reference ") == "reference"

    @pytest.mark.parametrize("bad", ["", "numpy", "fastest", None])
    def test_unknown_backend_rejected(self, bad):
        with pytest.raises((ValueError, TypeError)):
            resolve_backend_name(bad)
        if isinstance(bad, str):
            with pytest.raises(ValueError, match="unknown backend"):
                get_backend(bad)


class TestSolveEquivalence:
    @pytest.mark.parametrize("seed", range(3))
    def test_backends_agree(self, seed):
        ps = random_ps(50, 0.15, 3, seed=seed, ensure_edges=True)
        ref, wt_ref = get_backend("reference").solve(ps)
        fast, wt_fast = get_backend("fast").solve(ps)
        assert ref.edge_set() == fast.edge_set()
        assert dict(wt_fast.items()) == dict(wt_ref.items())

    def test_solve_modified_bmatching_backend_kwarg(self):
        ps = random_ps(40, 0.2, 2, seed=5, ensure_edges=True)
        ref, _ = solve_modified_bmatching(ps)
        fast, _ = solve_modified_bmatching(ps, backend="fast")
        assert ref.edge_set() == fast.edge_set()

    @pytest.mark.parametrize("backend", ["sharded", " FAST "])
    def test_solve_modified_bmatching_accepts_every_backend_name(self, backend):
        ps = random_ps(40, 0.2, 2, seed=5, ensure_edges=True)
        ref, wt_ref = solve_modified_bmatching(ps)
        got, wt = solve_modified_bmatching(ps, backend=backend)
        assert got.edge_set() == ref.edge_set()
        assert dict(wt.items()) == dict(wt_ref.items())

    def test_solve_modified_bmatching_rejects_unknown(self):
        ps = random_ps(10, 0.3, 1, seed=0, ensure_edges=True)
        with pytest.raises(ValueError, match="unknown backend"):
            solve_modified_bmatching(ps, backend="bogus")
