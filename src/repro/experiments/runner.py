"""Generic sweep runner: cartesian parameter grids → record lists.

Keeps benchmark files declarative: a bench defines a ``run(params) ->
dict`` function and a grid; the runner handles iteration, seeding
conventions and aggregation.
"""

from __future__ import annotations

import inspect
import itertools
import statistics
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Mapping, Optional, Sequence

__all__ = ["sweep", "aggregate"]


def _invoke(job: tuple[Callable[..., dict], dict]) -> dict:
    """Top-level call shim so jobs survive pickling to worker processes."""
    run, call = job
    return run(**call)


def _accepts_param(run: Callable[..., dict], name: str) -> bool:
    """Whether ``run`` can be called with keyword argument ``name``."""
    try:
        sig = inspect.signature(run)
    except (TypeError, ValueError):  # builtins, C callables — be permissive
        return True
    for p in sig.parameters.values():
        if p.kind is inspect.Parameter.VAR_KEYWORD:
            return True
        if p.name == name and p.kind in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        ):
            return True
    return False


def sweep(
    run: Callable[..., dict],
    grid: Mapping[str, Sequence],
    repeats: int = 1,
    seed_param: str = "seed",
    workers: Optional[int] = None,
    backend: Optional[str] = None,
) -> list[dict]:
    """Run ``run(**params)`` over the cartesian product of ``grid``.

    With ``repeats > 1`` each grid point is repeated with
    ``seed_param`` set to ``0..repeats-1`` (combined with any existing
    seed values via simple offsetting).  Each record is annotated with
    its parameters.

    ``workers > 1`` evaluates the grid points in a process pool
    (``run`` must then be a picklable module-level function, the usual
    multiprocessing constraint).  Record order is identical to the
    sequential order either way, so seeded sweeps stay reproducible.

    ``backend`` names a ``"reference"``/``"fast"``/``"sharded"``
    execution path (validated via
    :func:`repro.core.backend.get_backend`): it is passed
    through to ``run`` when its signature accepts a ``backend`` keyword,
    and annotated on every record either way.
    """
    if backend is not None:
        from repro.core.backend import resolve_backend_name

        backend = resolve_backend_name(backend)
    inject_backend = backend is not None and _accepts_param(run, "backend")

    keys = list(grid)
    jobs: list[tuple[dict, dict]] = []  # (annotation, call kwargs)
    for values in itertools.product(*(grid[k] for k in keys)):
        params = dict(zip(keys, values))
        for rep in range(repeats):
            call = dict(params)
            out = {**params}
            if repeats > 1:
                call[seed_param] = call.get(seed_param, 0) * repeats + rep
                out["rep"] = rep
            if backend is not None:
                out["backend"] = backend
                if inject_backend:
                    call.setdefault("backend", backend)
            jobs.append((out, call))

    if workers is not None and workers > 1 and len(jobs) > 1:
        # Batch jobs per worker round-trip: the default chunksize of 1
        # pays one pickle/IPC exchange per grid point, which dominates
        # for large sweeps of cheap runs.  ~4 chunks per worker keeps
        # load balancing while amortising the overhead.
        chunksize = max(1, len(jobs) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(
                pool.map(
                    _invoke,
                    [(run, call) for _, call in jobs],
                    chunksize=chunksize,
                )
            )
    else:
        results = [run(**call) for _, call in jobs]

    records = []
    for (out, _call), rec in zip(jobs, results):
        merged = dict(out)
        merged.update(rec)
        records.append(merged)
    return records


def aggregate(
    records: Iterable[Mapping],
    group_by: Sequence[str],
    fields: Sequence[str],
    reducers: Mapping[str, Callable[[list], float]] | None = None,
) -> list[dict]:
    """Group records and reduce numeric fields (mean by default).

    ``reducers`` may map a field to e.g. ``min``/``max``/``statistics.stdev``.
    Boolean fields aggregate to the fraction of ``True``.  A reducer
    that needs at least two data points (``statistics.stdev`` on a
    single-record group) yields ``None`` for that field rather than
    raising, so sparse sweeps still aggregate.
    """
    reducers = dict(reducers or {})
    groups: dict[tuple, list[Mapping]] = {}
    for rec in records:
        # .get: records written before a coordinate existed (e.g. a
        # store predating the max_rounds axis) group under None
        key = tuple(rec.get(g) for g in group_by)
        groups.setdefault(key, []).append(rec)
    out = []
    for key, recs in groups.items():
        row = dict(zip(group_by, key))
        row["count"] = len(recs)
        for f in fields:
            vals = [r[f] for r in recs if f in r]
            if not vals:
                continue
            if all(isinstance(v, bool) for v in vals):
                row[f] = sum(vals) / len(vals)
            else:
                reducer = reducers.get(f, statistics.fmean)
                try:
                    row[f] = reducer([float(v) for v in vals])
                except statistics.StatisticsError:
                    row[f] = None
        out.append(row)
    return out
