"""Tests for the experiments harness (instances, runner, reporting, ratios)."""

import numpy as np
import pytest

from repro.experiments.instances import (
    FAMILIES,
    cyclic_roommates,
    family_instance,
    random_preference_instance,
    random_weighted_instance,
    topology_for_family,
)
from repro.experiments.ratios import satisfaction_ratio_record, weight_ratio_record
from repro.experiments.reporting import format_table, write_csv
from repro.experiments.runner import aggregate, sweep


class TestInstances:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_families_build(self, family):
        topo = topology_for_family(family, 30, np.random.default_rng(0))
        assert topo.n == 30
        ps = family_instance(family, 30, 2, seed=1)
        assert ps.n == 30

    def test_unknown_family(self):
        with pytest.raises(KeyError):
            topology_for_family("nope", 10, np.random.default_rng(0))

    def test_random_preference_instance_reproducible(self):
        a = random_preference_instance(15, 0.3, 2, seed=9)
        b = random_preference_instance(15, 0.3, 2, seed=9)
        assert a == b

    def test_weighted_instance(self):
        wt, quotas = random_weighted_instance(20, 0.3, seed=1)
        assert wt.n == 20 and len(quotas) == 20
        assert all(1 <= q <= 4 for q in quotas)
        assert all(w > 0 for _, w in wt.items())

    def test_cyclic_roommates_structure(self):
        ps = cyclic_roommates(5)
        assert ps.n == 5 and ps.m == 5
        for i in range(5):
            assert ps.rank(i, (i + 1) % 5) == 0  # prefers successor
        with pytest.raises(ValueError):
            cyclic_roommates(2)


class TestRatios:
    def test_weight_ratio_record_fields(self):
        wt, quotas = random_weighted_instance(15, 0.3, seed=2)
        rec = weight_ratio_record(wt, quotas)
        assert rec["bound_ok"] and rec["certificate"] and rec["lid_equals_lic"]
        assert 0.5 <= rec["ratio"] <= 1.0 + 1e-9

    def test_satisfaction_ratio_record_fields(self):
        ps = random_preference_instance(12, 0.4, 2, seed=3)
        rec = satisfaction_ratio_record(ps)
        assert rec["bound_ok"]
        assert rec["ratio"] <= 1.0 + 1e-9
        assert rec["bound"] == pytest.approx(0.25 * (1 + 1 / ps.b_max))


class TestRunner:
    def test_sweep_product(self):
        rows = sweep(lambda a, b: {"s": a + b}, {"a": [1, 2], "b": [10, 20]})
        assert len(rows) == 4
        assert {"a": 1, "b": 20, "s": 21} in rows

    def test_sweep_repeats_inject_seed(self):
        rows = sweep(
            lambda seed: {"seed_used": seed}, {"seed": [0]}, repeats=3
        )
        assert [r["seed_used"] for r in rows] == [0, 1, 2]
        assert [r["rep"] for r in rows] == [0, 1, 2]

    def test_aggregate_means_and_bool_fractions(self):
        rows = [
            {"g": "x", "v": 1.0, "ok": True},
            {"g": "x", "v": 3.0, "ok": False},
            {"g": "y", "v": 10.0, "ok": True},
        ]
        agg = aggregate(rows, ["g"], ["v", "ok"])
        by_g = {r["g"]: r for r in agg}
        assert by_g["x"]["v"] == 2.0 and by_g["x"]["ok"] == 0.5
        assert by_g["y"]["count"] == 1

    def test_aggregate_custom_reducer(self):
        rows = [{"g": 1, "v": 5.0}, {"g": 1, "v": 1.0}]
        agg = aggregate(rows, ["g"], ["v"], reducers={"v": min})
        assert agg[0]["v"] == 1.0


class TestReporting:
    def test_format_table(self):
        text = format_table(
            [{"a": 1, "ok": True, "r": 0.51234}], title="T"
        )
        assert "T" in text and "a" in text and "yes" in text and "0.5123" in text

    def test_empty(self):
        assert "(no rows)" in format_table([])

    def test_write_csv(self, tmp_path):
        p = tmp_path / "out.csv"
        write_csv([{"a": 1, "b": 2}, {"a": 3, "c": 4}], p)
        text = p.read_text()
        assert text.splitlines()[0] == "a,b,c"
        assert "3,,4" in text

    def test_write_csv_empty(self, tmp_path):
        p = tmp_path / "empty.csv"
        write_csv([], p)
        assert p.read_text() == ""


class TestHistogram:
    def test_ascii_histogram_shape(self):
        from repro.experiments.reporting import ascii_histogram

        text = ascii_histogram([0.1, 0.1, 0.9], bins=2, width=10, lo=0, hi=1)
        lines = text.strip().splitlines()
        assert len(lines) == 2
        assert "2" in lines[0] and "1" in lines[1]
        assert lines[0].count("#") == 10  # peak bin at full width

    def test_ascii_histogram_empty_and_flat(self):
        from repro.experiments.reporting import ascii_histogram

        assert "(no data)" in ascii_histogram([])
        # constant data must not divide by zero
        text = ascii_histogram([0.5, 0.5, 0.5], bins=4)
        assert text.count("3") >= 1

    def test_sparkline(self):
        from repro.experiments.reporting import sparkline

        s = sparkline([0, 1, 2, 3])
        assert len(s) == 4 and s[0] == "▁" and s[-1] == "█"
        assert sparkline([]) == ""
        assert sparkline([2, 2]) == "▁▁"


def _square_job(x, seed=0):
    """Module-level so the parallel sweep can pickle it."""
    return {"sq": x * x + seed * 0}


def _backend_job(x, backend="reference"):
    """Module-level, accepts ``backend``: picklable for worker pools."""
    return {"used": backend, "x2": 2 * x}


def _no_backend_job(x):
    """Module-level, does NOT accept ``backend``."""
    return {"x2": 2 * x}


def _lic_job(n, seed=0, backend="reference"):
    """Solve a small instance on the requested backend (module-level)."""
    from repro.core import get_backend
    from repro.experiments.instances import random_preference_instance

    ps = random_preference_instance(n, 0.3, 2, seed=seed)
    m, _ = get_backend(backend).solve(ps)
    return {"edges": m.size()}


class TestParallelSweep:
    def test_workers_match_sequential(self):
        grid = {"x": [1, 2, 3, 4]}
        seq = sweep(_square_job, grid)
        par = sweep(_square_job, grid, workers=2)
        assert seq == par

    def test_workers_with_repeats(self):
        rows = sweep(_square_job, {"x": [2]}, repeats=3, workers=2)
        assert [r["rep"] for r in rows] == [0, 1, 2]
        assert all(r["sq"] == 4 for r in rows)

    def test_workers_preserve_record_order(self):
        grid = {"x": [5, 1, 4, 2, 3]}
        rows = sweep(_square_job, grid, workers=3)
        assert [r["x"] for r in rows] == [5, 1, 4, 2, 3]
        assert [r["sq"] for r in rows] == [25, 1, 16, 4, 9]

    def test_workers_with_seed_offsets(self):
        seq = sweep(
            lambda seed: {"seed_used": seed}, {"seed": [0, 1]}, repeats=2
        )
        par = sweep(_seed_echo_job, {"seed": [0, 1]}, repeats=2, workers=2)
        assert [r["seed_used"] for r in par] == [r["seed_used"] for r in seq]

    def test_one_worker_stays_sequential(self):
        rows = sweep(_square_job, {"x": [3]}, workers=1)
        assert rows == [{"x": 3, "sq": 9}]


def _seed_echo_job(seed):
    """Module-level echo of the injected seed (picklable)."""
    return {"seed_used": seed}


class TestSweepBackend:
    def test_backend_injected_and_annotated(self):
        rows = sweep(_backend_job, {"x": [1, 2]}, backend="fast")
        assert all(r["backend"] == "fast" and r["used"] == "fast" for r in rows)

    def test_backend_annotation_without_injection(self):
        # run() does not accept backend: annotate only, never pass it
        rows = sweep(_no_backend_job, {"x": [1]}, backend="fast")
        assert rows == [{"x": 1, "backend": "fast", "x2": 2}]

    def test_no_backend_by_default(self):
        rows = sweep(_backend_job, {"x": [1]})
        assert "backend" not in rows[0]
        assert rows[0]["used"] == "reference"  # run()'s own default

    def test_grid_value_wins_over_sweep_backend(self):
        rows = sweep(
            _backend_job, {"x": [1], "backend": ["reference"]}, backend="fast"
        )
        assert rows[0]["used"] == "reference"

    def test_unknown_backend_rejected_before_running(self):
        with pytest.raises(ValueError, match="unknown backend"):
            sweep(_backend_job, {"x": [1]}, backend="bogus")

    @pytest.mark.parametrize("workers", [None, 2])
    def test_backends_agree_across_workers(self, workers):
        grid = {"n": [12, 16]}
        ref = sweep(_lic_job, grid, backend="reference", workers=workers)
        fast = sweep(_lic_job, grid, backend="fast", workers=workers)
        assert [r["edges"] for r in ref] == [r["edges"] for r in fast]
        assert all(r["backend"] == "fast" for r in fast)
