"""T6 — round-truncated almost-stable LID: quality vs round budget k.

Sweeps the ``max_rounds`` budget at n = 20 000 (constant average degree
~10, the F2 regime) through the fast engine and records, per k, the
two instability measures and the satisfaction earned:

- ``blocking_pairs`` — the rank-based almost-stability measure of
  Theorem 3.  Truncated matchings are nested (locks are permanent), so
  this is monotone non-increasing in k; ``bp_delta_vs_prev`` encodes
  the monotonicity as a gateable column (``--max 0``).
- ``weighted_blocking_pairs`` — the eq.-9 weight-order notion, exactly
  0 iff the run reached the LIC fixpoint.  The CI gate pins this to 0
  on the k=∞ row (``--where k_label=inf --max 0``).
- ``satisfaction_ratio`` — truncated total satisfaction over the
  converged LIC optimum-within-LID.  Theorem 3 guarantees the converged
  matching earns ≥ ¼(1+1/b_max) of the global optimum, so a truncated
  run still carries the floor ``satisfaction_ratio × ¼(1+1/b_max)``
  (the ``theorem3_floor`` column); the table shows how fast the knee
  approaches the full guarantee — most of the satisfaction is earned in
  the first few proposal waves, long before quiescence.

``solve_ms`` is the whole ``solve_lid`` call; ``report_ms`` is the part
of it spent filling the report's quality fields (the
``truncation_report`` phase of ``metrics.phase_seconds``).

Expected shape: blocking pairs fall steeply then plateau at the
almost-stable residual; weighted blocking pairs hit exactly 0 at
convergence; the ratio knee sits around k ≈ 4–6 at this degree.
"""

import time

from repro.core.analysis import theorem3_bound
from repro.core.lid import solve_lid
from repro.experiments import random_preference_instance

N = 20_000
DEGREE = 10.0
#: budgets spanning empty → knee → safely past quiescence
KS = (0, 1, 2, 3, 4, 6, 8, 12, 1 << 30)
INF = 1 << 30


def _k_label(k: int) -> str:
    return "inf" if k >= INF else str(k)


def test_t6_truncation_sweep(report, benchmark, bench_seed):
    ps = random_preference_instance(N, DEGREE / N, 3, seed=bench_seed)
    bound = theorem3_bound(ps.b_max)

    rows = []
    prev_bp = None
    for k in KS:
        t0 = time.perf_counter()
        res, _wt = solve_lid(ps, backend="fast", max_rounds=k)
        solve_ms = (time.perf_counter() - t0) * 1e3
        t = res.truncation
        rows.append(
            {
                "k_label": _k_label(k),
                "k": k,
                "n": ps.n,
                "m": ps.m,
                "rounds": t.rounds,
                "converged": t.converged,
                "released_locks": t.released_locks,
                "blocking_pairs": t.blocking_pairs,
                "bp_delta_vs_prev": (
                    0 if prev_bp is None else t.blocking_pairs - prev_bp
                ),
                "weighted_blocking_pairs": t.weighted_blocking_pairs,
                "satisfaction_ratio": round(t.satisfaction_ratio, 6),
                "theorem3_floor": round(t.satisfaction_ratio * bound, 6),
                "solve_ms": round(solve_ms, 1),
                "report_ms": round(
                    res.metrics.phase_seconds["truncation_report"] * 1e3, 1
                ),
            }
        )
        prev_bp = t.blocking_pairs

    report(
        rows,
        ["k_label", "k", "n", "m", "rounds", "converged", "released_locks",
         "blocking_pairs", "bp_delta_vs_prev", "weighted_blocking_pairs",
         "satisfaction_ratio", "theorem3_floor", "solve_ms", "report_ms"],
        title=f"T6  almost-stable truncation sweep at n={N}"
              f" (Theorem 3 bound = {bound:.4f})",
        csv_name="t6_truncation.csv",
    )

    by_label = {r["k_label"]: r for r in rows}
    inf = by_label["inf"]
    # the k=∞ row is the untruncated fixpoint: exactly weight-stable
    assert inf["converged"]
    assert inf["weighted_blocking_pairs"] == 0
    assert inf["released_locks"] == 0
    assert inf["satisfaction_ratio"] == 1.0
    # nestedness ⇒ both instability measures monotone non-increasing
    assert all(r["bp_delta_vs_prev"] <= 0 for r in rows)
    wbps = [r["weighted_blocking_pairs"] for r in rows]
    assert wbps == sorted(wbps, reverse=True)
    # k=0 is the empty matching: blocked by every edge
    assert by_label["0"]["blocking_pairs"] == ps.m

    benchmark(lambda: solve_lid(ps, backend="fast", max_rounds=4))
