"""The three benchmark workloads: converged solve, truncated solve, churn serving.

Each workload has a set-up step (what a user pays before the first
operation: package import, plus building the service for
``service-geo500``) and a measure loop that repeats whole units of work
until the requested seconds have passed:

- ``solve-er20k`` / ``truncated-er20k``: one *item* builds a fresh
  seeded ``random_preference_instance(n=20000, p=10/(n-1), quota=3)``
  and solves it with ``solve_lid(ps, backend="fast")`` (truncated:
  ``max_rounds=3``).  Closed loop, one caller.
- ``service-geo500``: one *episode* builds a fresh
  ``ServiceConfig(n=500, family="geo", quota=3, backend="fast")``
  service and replays a 100-event ``poisson_trace`` through
  ``MatchingService.apply``, checkpointing every 25 events.  Closed
  loop, one caller; an *event* is the unit of latency.

Every check runs outside the timed regions; every item or event that
raises or fails a check counts as failed.  See ``README.md`` for what
each metric means and which layer should move it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
import tempfile
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter

from layers import SERVICE_LAYERS, STATIC_LAYERS, Tracer

WORKLOADS = ("solve-er20k", "truncated-er20k", "service-geo500")

STATIC_N = 20_000
STATIC_P = 10.0 / (STATIC_N - 1)
STATIC_QUOTA = 3
TRUNCATED_ROUNDS = 3
#: items whose outputs form the printed digest; always run
DIGEST_ITEMS = 2
MIN_ITEMS = 4

SERVICE_N = 500
EPISODE_EVENTS = 100  # leaves 10 samples beyond the p90 of one episode
CHECKPOINT_EVERY = 25
#: join 0.32 / leave 0.23 / crash 0.05; the remaining 0.40 are updates
SERVICE_MIX = {"join_frac": 0.32, "leave_frac": 0.23, "crash_frac": 0.05}
#: the traced run traces events in alternating blocks of this many, so
#: both halves hold the same share of the every-8th-event weight check
TRACE_BLOCK = 8

#: A shared host's speed drifts by tens of percent within a minute (see
#: README.md).  Before every item, event and set-up the benchmark times
#: this fixed probe; end-to-end times are divided, and rates multiplied,
#: by the probe's time over its reference time, so they read as on the
#: reference machine at its usual speed.
PROBE_ENTRIES = 60_000
#: median probe time on the reference machine (2-core x86-64 container,
#: Xeon at 2.1 GHz, Python 3.11.7)
REFERENCE_PROBE_S = 0.019

#: per-layer metric names and units, for every workload (a layer that a
#: workload bypasses reads 0 there)
PER_LAYER = {
    **{f"{name}.self_s": "s" for _, _, name in STATIC_LAYERS},
    "core.truncation.finalize_truncation.incl_s": "s",
    "core.fast_lid.build_weights_s": "s",
    "core.fast_lid.sim_loop_s": "s",
    "core.fast_lid.extract_s": "s",
    "core.fast_lid.rounds": "count",
    "core.fast_lid.props_sent": "count",
    "core.fast_lid.rejs_sent": "count",
    "core.fast_lid.matched_edges": "count",
    "core.fast_lid.lock_ratio": "ratio",
    "core.truncation.blocking_pairs": "count",
    "core.truncation.weighted_blocking_pairs": "count",
    "core.truncation.released_locks": "count",
    **{f"{name}.self_ms": "ms" for _, _, name in SERVICE_LAYERS},
    "overlay.builder.build_preference_system.calls_per_event": "calls/event",
    "overlay.churn.weights_reused": "count",
    "overlay.churn.weights_recomputed": "count",
    "overlay.churn.weight_reuse_ratio": "ratio",
    "overlay.churn.resolutions": "count",
    "service.full_resolves": "count",
    "service.guard_violations": "count",
    "service.degraded_entries": "count",
    "service.checkpoint.bytes": "bytes",
    "service.unaccounted_ms": "ms",
    "unaccounted_s": "s",
    "trace_overhead_frac": "ratio",
}

END_TO_END = {
    "setup_s": "s",
    "item_s_p50": "s",
    "edges_per_s": "1/s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
}


@dataclass
class Outcome:
    """What one measure loop did; ``metrics`` excludes ``setup_s`` and RSS."""

    attempted: int = 0
    failed: int = 0
    reproducible: bool = True
    digest: str = ""
    metrics: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    summary: dict = field(default_factory=dict)


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def _mean(xs) -> float:
    return float(sum(xs)) / len(xs) if xs else 0.0


def _item_seed(seed: int, k: int) -> int:
    return int.from_bytes(hashlib.sha256(f"{seed}:{k}".encode()).digest()[:4], "big")


def speed_factor() -> float:
    """How much slower than the reference machine this one runs right now."""
    t0 = perf_counter()
    table = {i: (i * 7919) % 65_521 for i in range(PROBE_ENTRIES)}
    sorted(table, key=table.__getitem__)
    return (perf_counter() - t0) / REFERENCE_PROBE_S


def _layer_self(totals, units, name: str, scale: float) -> float:
    """Median self time of ``name`` over the units in which it ran."""
    return scale * _median([totals[u][name][0] for u in units if name in totals[u]])


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def _service_config(seed: int):
    from repro.service.runner import ServiceConfig

    return ServiceConfig(n=SERVICE_N, family="geo", quota=STATIC_QUOTA,
                         backend="fast", seed=seed)


def setup(workload: str, seed: int):
    """Everything a user pays before the workload's first operation."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if workload == "service-geo500":
        from repro.service.runner import build_service

        return build_service(_service_config(seed))
    import repro.core.fast  # noqa: F401
    import repro.core.lid  # noqa: F401
    import repro.experiments.instances  # noqa: F401

    return None


def timed_setup(workload: str, seed: int):
    """``(state, wall seconds, speed factor)`` of one set-up."""
    factor = speed_factor()
    t0 = perf_counter()
    state = setup(workload, seed)
    return state, perf_counter() - t0, factor


def measure(workload: str, seed: int, seconds: float, state, tracer: "Tracer | None"):
    if workload == "service-geo500":
        return _measure_service(seed, seconds, state, tracer)
    rounds = TRUNCATED_ROUNDS if workload == "truncated-er20k" else None
    return _measure_static(rounds, seed, seconds, tracer)


# ---------------------------------------------------------------------------
# static workloads
# ---------------------------------------------------------------------------


def _check_static(ps, res, max_rounds) -> bool:
    """Theorem 3: the converged matching is the LIC edge set; truncated ⊆ it."""
    from repro.core.fast import FastInstance, lic_matching_fast

    lic = lic_matching_fast(FastInstance.from_preference_system(ps)).edge_set()
    got = res.matching.edge_set()
    tr = res.truncation
    if max_rounds is None:
        return tr.converged and got == lic
    return (
        got <= lic
        and tr.rounds <= max_rounds
        and tr.blocking_pairs is not None
        and tr.weighted_blocking_pairs is not None
        and (not tr.converged or tr.weighted_blocking_pairs == 0)
    )


def _measure_static(max_rounds, seed, seconds, tracer):
    from repro.core import lid
    from repro.experiments import instances

    traced_run = tracer is not None
    tracer = tracer or Tracer()
    out = Outcome()
    digest = hashlib.sha256()
    times: list[tuple[float, float]] = []  # (wall seconds, speed factor)
    traced_times: list[tuple[float, float]] = []
    traced_units: list[int] = []
    rates: list[float] = []  # edges per reference second, per item
    phases: dict[str, list[float]] = {"build_weights": [], "sim_loop": [], "extract": []}
    counts: dict[str, list[int]] = {}
    start = perf_counter()
    k = 0
    while k < MIN_ITEMS or perf_counter() - start < seconds:
        item_seed = _item_seed(seed, k)
        traced = traced_run and k % 2 == 0
        out.attempted += 1
        gc.collect()
        factor = speed_factor()
        try:
            tracer.unit, tracer.enabled = k, traced
            t0 = perf_counter()
            with tracer.span("item"):
                ps = instances.random_preference_instance(
                    STATIC_N, STATIC_P, STATIC_QUOTA, item_seed
                )
                res, wt = lid.solve_lid(ps, backend="fast", max_rounds=max_rounds)
            dt = perf_counter() - t0
            tracer.enabled = False
            del wt
            ok = _check_static(ps, res, max_rounds)
        except Exception:  # one failed item must not end the run
            tracer.enabled = False
            traceback.print_exc()
            out.failed += 1
            k += 1
            continue
        out.failed += not ok
        (traced_times if traced else times).append((dt, factor))
        if traced:
            traced_units.append(k)
        rates.append(ps.m * factor / dt)
        tr = res.truncation
        for key in phases:
            phases[key].append(res.metrics.phase_seconds.get(key, 0.0))
        for key, value in (
            ("rounds", tr.rounds),
            ("props_sent", res.prop_messages),
            ("rejs_sent", res.rej_messages),
            ("matched_edges", res.matching.size()),
            ("blocking_pairs", tr.blocking_pairs or 0),
            ("weighted_blocking_pairs", tr.weighted_blocking_pairs or 0),
            ("released_locks", tr.released_locks),
        ):
            counts.setdefault(key, []).append(value)
        if k < DIGEST_ITEMS:
            digest.update(json.dumps(
                {"seed": item_seed, "edges": res.matching.edges(), "truncation": asdict(tr)},
                sort_keys=True,
            ).encode())
        k += 1
    out.digest = digest.hexdigest()[:16]
    all_times = times + traced_times
    out.metrics = {
        "item_s_p50": _median([dt / f for dt, f in all_times]),
        "edges_per_s": _median(rates),
        "events_per_s": _median([f / dt for dt, f in all_times]),
    }
    out.summary = {
        "items": out.attempted,
        "wall_item_s_p50": _median([dt for dt, _ in all_times]),
        "speed_factor": _median([f for _, f in all_times]),
    }
    if not traced_run:
        return out
    totals = tracer.unit_totals()
    layers = {
        f"{name}.self_s": _layer_self(totals, traced_units, name, 1.0)
        for _, _, name in STATIC_LAYERS
    }
    fin = "core.truncation.finalize_truncation"
    layers[f"{fin}.incl_s"] = _median(
        [totals[u][fin][1] for u in traced_units if fin in totals[u]]
    )
    for key, values in phases.items():
        layers[f"core.fast_lid.{key}_s"] = _median(values)
    for key in ("rounds", "props_sent", "rejs_sent", "matched_edges"):
        layers[f"core.fast_lid.{key}"] = _mean(counts.get(key, []))
    props = sum(counts.get("props_sent", []))
    layers["core.fast_lid.lock_ratio"] = (
        2 * sum(counts.get("matched_edges", [])) / props if props else 0.0
    )
    for key in ("blocking_pairs", "weighted_blocking_pairs", "released_locks"):
        layers[f"core.truncation.{key}"] = _mean(counts.get(key, []))
    layers["unaccounted_s"] = _layer_self(totals, traced_units, "item", 1.0)
    base = _median([dt / f for dt, f in times])
    traced_p50 = _median([dt / f for dt, f in traced_times])
    layers["trace_overhead_frac"] = traced_p50 / base - 1.0 if base else 0.0
    out.layers = layers
    out.summary["traced_items"] = len(traced_units)
    out.summary["breakdown"] = _breakdown(totals, traced_units)
    return out


# ---------------------------------------------------------------------------
# service workload
# ---------------------------------------------------------------------------


def _served_sha(state: dict) -> str:
    """12-hex digest of the served matching, external peer ids."""
    edges = sorted(
        (int(pid), q) for pid, qs in state["partners"].items() for q in qs if int(pid) < q
    )
    return hashlib.sha256(json.dumps(edges).encode()).hexdigest()[:12]


def _overlay_edges(state: dict) -> int:
    return sum(len(qs) for qs in state["adjacency"].values()) // 2


_TOPOLOGY_KINDS = ("join", "leave", "crash")
_COUNTED = ("resolutions", "weights_reused", "weights_recomputed")


def _measure_service(seed, seconds, first_service, tracer):
    from repro.service import checkpoint
    from repro.service.differential import conformance_check
    from repro.service.events import poisson_trace
    from repro.service.runner import build_service

    traced_run = tracer is not None
    tracer = tracer or Tracer()
    config = _service_config(seed)
    trace = poisson_trace(EPISODE_EVENTS, seed, **SERVICE_MIX)
    fingerprint = trace.fingerprint()
    out = Outcome()
    lat: list[tuple[str, bool, float, float]] = []  # (kind, traced, wall s, factor)
    deltas = {key: [] for key in _COUNTED}
    ckpt_bytes: list[int] = []
    traced_units: list = []
    ckpt_units: list = []
    windows: list[tuple[float, float]] = []  # (events/s, edges/s), reference speed
    counters_total: dict[str, int] = {}
    shas: list[str] = []
    scratch = Path(__file__).resolve().parent.parent / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    start = perf_counter()
    episode = 0
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        while episode == 0 or perf_counter() - start < seconds:
            svc = first_service if episode == 0 else build_service(config)
            ckdir = Path(tmp) / f"episode-{episode}"
            edges_before = _overlay_edges(svc.snapshot())
            gc.collect()
            applied = 0
            window_s, window_factors = 0.0, []
            for ev in trace.events:
                traced = traced_run and (ev.seq // TRACE_BLOCK) % 2 == 0
                before = dict(svc.counters) if traced else None
                out.attempted += 1
                factor = speed_factor()
                tracer.unit, tracer.enabled = (episode, ev.seq), traced
                try:
                    t0 = perf_counter()
                    with tracer.span("apply"):
                        outcome = svc.apply(ev)
                    dt = perf_counter() - t0
                    tracer.enabled = False
                    window_s += dt
                    window_factors.append(factor)
                    done = ev.seq + 1
                    if done % CHECKPOINT_EVERY == 0:
                        tracer.unit, tracer.enabled = ("ckpt", episode, done), traced_run
                        t0 = perf_counter()
                        state = svc.snapshot()
                        path = checkpoint.write_checkpoint(ckdir, done, fingerprint, state)
                        window_s += perf_counter() - t0
                        tracer.enabled = False
                        ckpt_bytes.append(path.stat().st_size)
                        ckpt_units.append(("ckpt", episode, done))
                        edges_after = _overlay_edges(state)
                        rate = CHECKPOINT_EVERY * _mean(window_factors) / window_s
                        windows.append((rate, rate * (edges_before + edges_after) / 2))
                        edges_before, window_s, window_factors = edges_after, 0.0, []
                except Exception:  # the episode's state is now suspect: stop it
                    tracer.enabled = False
                    traceback.print_exc()
                    out.failed += 1
                    break
                applied += 1
                out.failed += not outcome.guard_ok
                lat.append((ev.kind, traced, dt, factor))
                if traced:
                    traced_units.append((episode, ev.seq))
                    for key in _COUNTED:
                        deltas[key].append(svc.counters[key] - before[key])
            report = conformance_check(svc)
            clean = (
                applied == len(trace.events)
                and report.ok
                and report.matches_fresh_solve
                and svc.counters["guard_violations"] == 0
                and svc.counters["degraded_entries"] == 0
            )
            if not clean:
                # a wrong final state makes every event of the episode suspect
                out.failed += applied
            for key, value in svc.counters.items():
                counters_total[key] = counters_total.get(key, 0) + value
            shas.append(_served_sha(svc.snapshot()))
            episode += 1
    try:
        scratch.rmdir()
    except OSError:  # another run still uses it
        pass
    out.reproducible = len(set(shas)) == 1
    out.digest = hashlib.sha256(f"{fingerprint}:{shas[0]}".encode()).hexdigest()[:16]
    ref = [dt / f for _, _, dt, f in lat]
    out.metrics = {
        "item_s_p50": _median(ref),
        "events_per_s": _median([w[0] for w in windows]),
        "edges_per_s": _median([w[1] for w in windows]),
    }
    out.summary = {
        "episodes": episode,
        "events": len(lat),
        "windows": len(windows),
        "event_ms_p90": 1000 * _p90(ref),
        "update_ms_p50": 1000 * _median(
            [dt / f for kind, _, dt, f in lat if kind == "update"]
        ),
        "topology_ms_p50": 1000 * _median(
            [dt / f for kind, _, dt, f in lat if kind in _TOPOLOGY_KINDS]
        ),
        "wall_item_s_p50": _median([dt for _, _, dt, _ in lat]),
        "speed_factor": _median([f for _, _, _, f in lat]),
        "trace_fingerprint": fingerprint,
        "matching_sha": shas[0],
    }
    if not traced_run:
        return out
    totals = tracer.unit_totals()
    layers = {}
    for _, _, name in SERVICE_LAYERS:
        units = ckpt_units if name.startswith(("service.MatchingService.snapshot",
                                               "service.checkpoint")) else traced_units
        layers[f"{name}.self_ms"] = _layer_self(totals, units, name, 1000.0)
    rebuild = "overlay.builder.build_preference_system"
    layers[f"{rebuild}.calls_per_event"] = _mean(
        [totals[u][rebuild][2] if rebuild in totals[u] else 0 for u in traced_units]
    )
    for key in ("weights_reused", "weights_recomputed", "resolutions"):
        layers[f"overlay.churn.{key}"] = _mean(deltas[key])
    reused, recomputed = sum(deltas["weights_reused"]), sum(deltas["weights_recomputed"])
    layers["overlay.churn.weight_reuse_ratio"] = (
        reused / (reused + recomputed) if reused + recomputed else 0.0
    )
    for key in ("full_resolves", "guard_violations", "degraded_entries"):
        layers[f"service.{key}"] = float(counters_total.get(key, 0))
    layers["service.checkpoint.bytes"] = _mean(ckpt_bytes)
    layers["service.unaccounted_ms"] = _layer_self(totals, traced_units, "apply", 1000.0)
    layers["unaccounted_s"] = layers["service.unaccounted_ms"] / 1000.0
    # medians, not p90s: the p90 sits where events with the weight
    # check's second rebuild meet those without, so it jumps between halves
    base = _median([dt / f for _, traced, dt, f in lat if not traced])
    traced_p50 = _median([dt / f for _, traced, dt, f in lat if traced])
    layers["trace_overhead_frac"] = traced_p50 / base - 1.0 if base else 0.0
    out.layers = layers
    out.summary["traced_events"] = len(traced_units)
    out.summary["breakdown"] = _breakdown(totals, traced_units)
    return out


def _p90(xs) -> float:
    return float(statistics.quantiles(xs, n=10)[-1]) if len(xs) > 1 else _median(xs)


def _breakdown(totals, units) -> list:
    """Mean self and inclusive seconds per unit, per span name, largest first.

    The root span's self time is the unit's wall time outside every
    layer span; its inclusive time is the unit's traced wall time.
    """
    names = {name for u in units for name in totals[u]}
    rows = []
    for name in names:
        recs = [totals[u][name] for u in units if name in totals[u]]
        rows.append({
            "span": name,
            "self_s": sum(r[0] for r in recs) / len(units),
            "incl_s": sum(r[1] for r in recs) / len(units),
            "calls": sum(r[2] for r in recs) / len(units),
        })
    rows.sort(key=lambda r: r["self_s"], reverse=True)
    return rows
