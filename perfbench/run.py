"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload solve-er20k --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

``--trace 0`` prints the end-to-end metrics (no layer is wrapped);
``--trace 1`` wraps every layer entry point and prints the per-layer
metrics instead.  ``--workload all`` runs each workload in its own
process, one after another.

Output: a readable summary, a ``digest`` line (equal for two runs of the
same seed), a ``record`` line (the result stamped with a machine
fingerprint) and, last, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero when the package
sources are missing or the workload cannot be set up.
"""

from __future__ import annotations

import os

# one process, no extra threads: pin native thread pools before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: set-up is repeated in this many extra processes; ``setup_s`` is the
#: median over them and this process
SETUP_PROBES = 2

_PROBE = (
    "import sys; sys.path[:0] = {paths!r}; import workloads; "
    "_, wall, factor = workloads.timed_setup({workload!r}, {seed!r}); print(wall, factor)"
)


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_sha() -> str:
    """Digest of the package sources, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def machine_fingerprint() -> dict:
    import numpy

    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "git_sha": _git_sha(),
        "source_sha": _source_sha(),
    }


def _setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """``(wall seconds, speed factor)`` of the set-up in a fresh process."""
    code = _PROBE.format(paths=[str(HERE), str(SRC)], workload=workload, seed=seed)
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        timeout=120,
    )
    wall, factor = done.stdout.split()[-2:]
    return float(wall), float(factor)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(args) -> int:
    sys.path[:0] = [str(HERE), str(SRC)]
    import workloads
    from layers import SERVICE_LAYERS, STATIC_LAYERS, Tracer, installed

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        state, wall, factor = workloads.timed_setup(args.workload, args.seed)
    except ImportError as exc:
        print(f"cannot set up {args.workload}: {exc}", file=sys.stderr)
        return 2
    setups = [(wall, factor)]

    if args.trace:
        layers = SERVICE_LAYERS if args.workload == "service-geo500" else STATIC_LAYERS
        tracer = Tracer()
        with installed(tracer, layers):
            out = workloads.measure(args.workload, args.seed, args.seconds, state, tracer)
        metrics = {
            name: {"value": float(out.layers.get(name, 0.0)), "unit": unit}
            for name, unit in workloads.PER_LAYER.items()
        }
    else:
        out = workloads.measure(args.workload, args.seed, args.seconds, state, None)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups += [_setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        out.summary["wall_setup_s"] = statistics.median(w for w, _ in setups)
        values = dict(
            out.metrics,
            setup_s=statistics.median(w / f for w, f in setups),
            peak_rss_mb=peak_rss_mb,
        )
        metrics = {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in workloads.END_TO_END.items()
        }

    error_rate = out.failed / out.attempted if out.attempted else 1.0
    correct = out.attempted > 0 and out.failed == 0 and out.reproducible
    breakdown = out.summary.pop("breakdown", [])
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    for name, m in metrics.items():
        print(f"  {name:<60} {_fmt(m['value']):>14} {m['unit']}")
    for name, value in out.summary.items():
        print(f"  {name:<60} {_fmt(value):>14}")
    print(f"  {'error_rate':<60} {_fmt(error_rate):>14} ratio")
    if breakdown:
        print("  mean per traced unit: self_s / incl_s / calls")
        for row in breakdown:
            print(f"    {row['span']:<58} {row['self_s']:>10.4f} {row['incl_s']:>10.4f}"
                  f" {row['calls']:>7.2f}")
    print(f"digest {args.workload} seed={args.seed} {out.digest}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": machine_fingerprint(),
        "digest": out.digest,
        "error_rate": error_rate,
        "summary": out.summary,
        "metrics": {k: m["value"] for k, m in metrics.items()},
    }
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so RSS and set-up stay separate."""
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = subprocess.run(cmd, check=False).returncode or status
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="solve-er20k, truncated-er20k, service-geo500 or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"package sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        sys.path.insert(0, str(HERE))
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
