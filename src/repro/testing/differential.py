"""Cross-backend differential engine.

The repo computes the same matching six ways — reference LIC, fast
LIC, reference LID (event simulator), fast LID (round-batched engine),
sharded LID (partitioned waves with boundary reconciliation) and
resilient LID (reliable channels, fault-free here) — and the
paper's lemmas say they must all agree: Lemmas 3–6 make every greedy
execution select the LIC edge set, and the fast engines are documented
bit-identical replays.  This module runs any instance through all of
them and diffs

- the **matching** (edge sets must be identical),
- the **satisfaction totals** (eq. 1, recomputed exactly by the
  oracles, must agree to float tolerance),
- the **message-count invariants** (reference LID and fast LID are
  bit-identical in PROP/REJ counts; resilient LID may differ — its
  transport is different — but its *matching* may not),

and feeds every pipeline's output through the oracle battery of
:mod:`repro.testing.oracles`.  Any discrepancy becomes a typed
:class:`Divergence`; :mod:`repro.testing.minimise` shrinks the instance
it occurred on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.core.backend import BACKENDS, Backend, ShardedBackend, get_backend
from repro.core.lid import solve_lid
from repro.core.matching import Matching
from repro.core.preferences import PreferenceSystem
from repro.core.weights import WeightTable
from repro.testing.oracles import OracleReport, verify_matching

__all__ = [
    "PipelineRun",
    "Divergence",
    "DifferentialReport",
    "PIPELINES",
    "DEFAULT_PIPELINES",
    "REFERENCE_PIPELINE",
    "TRUNCATION_INF",
    "TRUNCATION_KS",
    "TRUNCATED_PIPELINES",
    "run_pipeline",
    "run_differential",
]

Edge = tuple[int, int]

# satisfaction totals across backends accumulate float error differently
SAT_TOL = 1e-8


@dataclass
class PipelineRun:
    """One backend's answer to one instance.

    ``weight_table`` is the eq.-9 table the pipeline actually used, so
    the oracles can check its consistency too; message counts are
    ``None`` for pipelines without a message model (LIC).
    """

    pipeline: str
    matching: Matching
    total_satisfaction: float
    prop_messages: Optional[int] = None
    rej_messages: Optional[int] = None
    profile: Optional[Sequence[float]] = None
    weight_table: Optional["WeightTable"] = None
    # round-truncated runs: the rank-based blocking-pair count (diffed
    # when both sides report one) and the diff group ("trunc@k1", ...)
    # — members of a group are diffed against the group's first-inserted
    # run instead of the global reference, because a k-truncated
    # matching legitimately differs from the converged one.
    blocking_pairs: Optional[int] = None
    diff_group: Optional[str] = None

    def edge_set(self) -> frozenset[Edge]:
        return self.matching.edge_set()


@dataclass(frozen=True)
class Divergence:
    """One disagreement between two pipelines (or pipeline vs oracle).

    ``kind`` ∈ {``matching``, ``satisfaction``, ``messages``,
    ``blocking-pairs``, ``oracle``}; ``detail`` carries the concrete
    diff (missing/extra edges, numeric gap, or the oracle violation
    text).
    """

    kind: str
    left: str
    right: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.left} vs {self.right} — {self.detail}"


@dataclass
class DifferentialReport:
    """Everything the engine learned about one instance."""

    runs: dict[str, PipelineRun] = field(default_factory=dict)
    divergences: list[Divergence] = field(default_factory=list)
    oracle_reports: dict[str, OracleReport] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """No divergence and no oracle violation."""
        return not self.divergences

    def summary(self) -> str:
        if self.ok:
            return f"{len(self.runs)} pipelines agree"
        return "; ".join(str(d) for d in self.divergences[:5]) + (
            f" (+{len(self.divergences) - 5} more)" if len(self.divergences) > 5 else ""
        )


# ----------------------------------------------------------------------
# pipelines
# ----------------------------------------------------------------------


def _lic_pipeline(backend: str) -> Callable[[PreferenceSystem, int], PipelineRun]:
    """LIC on ``backend``'s weights, selection and satisfaction stages."""
    be = get_backend(backend)

    def run(ps: PreferenceSystem, seed: int) -> PipelineRun:
        wt = be.build_weights(ps)
        matching = be.lic(wt, ps.quotas)
        profile = be.satisfaction_profile(ps, matching)
        return PipelineRun(
            f"lic-{be.name}", matching, float(profile.sum()),
            profile=profile, weight_table=wt,
        )

    return run


def _lid_pipeline(
    name: str, backend: Backend, k: Optional[int] = None, group: Optional[str] = None
) -> Callable[[PreferenceSystem, int], PipelineRun]:
    """LID through :func:`~repro.core.lid.solve_lid` on ``backend``.

    ``k`` is the round budget (``None`` runs to convergence); truncated
    runs report the array truncation report's blocking-pair count.
    """

    def run(ps: PreferenceSystem, seed: int) -> PipelineRun:
        res, wt = solve_lid(ps, seed=seed, backend=backend, max_rounds=k)
        return PipelineRun(
            name, res.matching,
            res.matching.total_satisfaction(ps),
            prop_messages=res.prop_messages, rej_messages=res.rej_messages,
            weight_table=wt,
            blocking_pairs=res.truncation.blocking_pairs,
            diff_group=group,
        )

    return run


def _resilient_pipeline(
    name: str, k: Optional[int] = None, group: Optional[str] = None
) -> Callable[[PreferenceSystem, int], PipelineRun]:
    """Resilient LID (reliable channels, fault-free); no message twin.

    Truncated runs score their blocking pairs with the independent
    :func:`~repro.baselines.verify.count_blocking_pairs`.
    """

    def run(ps: PreferenceSystem, seed: int) -> PipelineRun:
        from repro.baselines.verify import count_blocking_pairs
        from repro.core.resilient_lid import run_resilient_lid
        from repro.core.weights import satisfaction_weights

        wt = satisfaction_weights(ps)
        res = run_resilient_lid(wt, ps.quotas, seed=seed, max_rounds=k)
        return PipelineRun(
            name, res.matching,
            res.matching.total_satisfaction(ps),
            weight_table=wt,
            blocking_pairs=None if k is None else count_blocking_pairs(ps, res.matching),
            diff_group=group,
        )

    return run


# the sharded pipeline runs shards=4, which exercises boundary
# reconciliation on every non-trivial instance; workers=0 keeps it
# deterministic and safe inside pool workers.  For k > 1 shards the wave
# schedule differs from the reference, so its message counts are
# reported but NOT twinned (the matching must still be identical —
# Lemmas 3–6).
PIPELINES: dict[str, Callable[[PreferenceSystem, int], PipelineRun]] = {
    "lic-reference": _lic_pipeline("reference"),
    "lic-fast": _lic_pipeline("fast"),
    **{f"lid-{name}": _lid_pipeline(f"lid-{name}", BACKENDS[name]) for name in BACKENDS},
    "lid-resilient": _resilient_pipeline("lid-resilient"),
}

DEFAULT_PIPELINES = tuple(PIPELINES)
REFERENCE_PIPELINE = "lic-reference"


# ----------------------------------------------------------------------
# round-truncated pipelines (registered AFTER DEFAULT_PIPELINES is
# frozen, so default sweeps are untouched)
# ----------------------------------------------------------------------

#: sentinel "∞" round budget — large enough that every battery instance
#: converges, so the truncation *code path* runs but must reproduce the
#: untruncated output exactly (these runs diff against the global
#: reference like any converged pipeline).
TRUNCATION_INF = 1 << 30

#: the k values of the truncation conformance battery, by label
TRUNCATION_KS: dict[str, int] = {"k1": 1, "k3": 3, "kinf": TRUNCATION_INF}


# the reference engine registers first within each k so it becomes the
# group's diff reference (groups diff against their first-inserted run);
# the truncated sharded pipelines run a different shard count (3) than
# the default one
_TRUNCATED_BACKENDS = (BACKENDS["reference"], BACKENDS["fast"], ShardedBackend(shards=3))
for _label, _k in TRUNCATION_KS.items():
    _group = None if _k == TRUNCATION_INF else f"trunc@{_label}"
    for _be in _TRUNCATED_BACKENDS:
        _name = f"lid-truncated-{_be.name}@{_label}"
        PIPELINES[_name] = _lid_pipeline(_name, _be, _k, _group)
    _name = f"lid-truncated-resilient@{_label}"
    PIPELINES[_name] = _resilient_pipeline(_name, _k, _group)

#: every registered truncated pipeline name (not part of the defaults)
TRUNCATED_PIPELINES = tuple(n for n in PIPELINES if n.startswith("lid-truncated-"))

# pipeline pairs whose message statistics are documented bit-identical;
# the round-batched engine replays the reference schedule at every k,
# dropped in-flight wave included
_MESSAGE_TWINS = (("lid-reference", "lid-fast"),) + tuple(
    (f"lid-truncated-reference@{label}", f"lid-truncated-fast@{label}")
    for label in TRUNCATION_KS
)


def run_pipeline(
    name: "str | Callable[[PreferenceSystem, int], PipelineRun]",
    ps: PreferenceSystem,
    seed: int = 0,
) -> PipelineRun:
    """Execute one pipeline by registry name (or as a callable)."""
    fn = PIPELINES[name] if isinstance(name, str) else name
    return fn(ps, seed)


def _diff_runs(ref: PipelineRun, other: PipelineRun) -> list[Divergence]:
    out: list[Divergence] = []
    ref_edges, other_edges = ref.edge_set(), other.edge_set()
    if ref_edges != other_edges:
        missing = sorted(ref_edges - other_edges)
        extra = sorted(other_edges - ref_edges)
        out.append(Divergence(
            kind="matching", left=ref.pipeline, right=other.pipeline,
            detail=f"missing={missing[:6]} extra={extra[:6]}"
                   f" (|Δ|={len(missing) + len(extra)})",
        ))
    gap = abs(ref.total_satisfaction - other.total_satisfaction)
    if gap > SAT_TOL * max(1.0, abs(ref.total_satisfaction)):
        out.append(Divergence(
            kind="satisfaction", left=ref.pipeline, right=other.pipeline,
            detail=f"{ref.total_satisfaction:.12g} vs "
                   f"{other.total_satisfaction:.12g} (gap {gap:.3g})",
        ))
    if (
        ref.blocking_pairs is not None
        and other.blocking_pairs is not None
        and ref.blocking_pairs != other.blocking_pairs
    ):
        out.append(Divergence(
            kind="blocking-pairs", left=ref.pipeline, right=other.pipeline,
            detail=f"{ref.blocking_pairs} vs {other.blocking_pairs}",
        ))
    return out


def run_differential(
    ps: PreferenceSystem,
    seed: int = 0,
    pipelines: Optional[Sequence[str]] = None,
    extra_pipelines: Optional[dict[str, Callable[[PreferenceSystem, int], PipelineRun]]] = None,
    oracle_bounds: bool = False,
) -> DifferentialReport:
    """Run an instance through every pipeline and diff the outcomes.

    Parameters
    ----------
    pipelines:
        Registry names to run (default: all of :data:`DEFAULT_PIPELINES`).
    extra_pipelines:
        Additional named callables (the mutation harness injects its
        planted-bug pipelines here); they are diffed against the
        reference like any other.
    oracle_bounds:
        Forwarded to :func:`repro.testing.oracles.verify_matching` —
        also check the Theorem 1/3 bounds via the exact MILP optima
        (small instances only).
    """
    names = list(pipelines if pipelines is not None else DEFAULT_PIPELINES)
    report = DifferentialReport()
    fns: list[tuple[str, Callable[[PreferenceSystem, int], PipelineRun]]] = [
        (name, PIPELINES[name]) for name in names
    ]
    if extra_pipelines:
        fns.extend(extra_pipelines.items())

    for name, fn in fns:
        run = fn(ps, seed)
        run.pipeline = name  # registry name wins over the callable's label
        report.runs[name] = run
        # theorem bounds hold for the converged protocol only — a
        # k-truncated partial matching (diff_group set) is exempt
        oracle = verify_matching(
            ps, run.matching, wt=run.weight_table,
            profile=run.profile,
            bounds=oracle_bounds and run.diff_group is None,
        )
        report.oracle_reports[name] = oracle
        for violation in oracle.violations:
            report.divergences.append(Divergence(
                kind="oracle", left=name, right="oracle",
                detail=str(violation),
            ))

    ref_name = REFERENCE_PIPELINE if REFERENCE_PIPELINE in report.runs else next(iter(report.runs))
    ref = report.runs[ref_name]
    # truncated runs at the same k form a diff group: they must agree
    # with each other (and with the group's reference engine), but not
    # with the converged global reference
    group_refs: dict[str, PipelineRun] = {}
    for name, run in report.runs.items():
        if run.diff_group is not None and run.diff_group not in group_refs:
            group_refs[run.diff_group] = run
    for name, run in report.runs.items():
        target = ref if run.diff_group is None else group_refs[run.diff_group]
        if name != target.pipeline:
            report.divergences.extend(_diff_runs(target, run))

    for left, right in _MESSAGE_TWINS:
        a, b = report.runs.get(left), report.runs.get(right)
        if a is None or b is None:
            continue
        if (a.prop_messages, a.rej_messages) != (b.prop_messages, b.rej_messages):
            report.divergences.append(Divergence(
                kind="messages", left=left, right=right,
                detail=f"PROP {a.prop_messages} vs {b.prop_messages}, "
                       f"REJ {a.rej_messages} vs {b.rej_messages}",
            ))
    return report
