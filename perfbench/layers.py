"""Layer spans for the traced benchmark run.

The traced run replaces each layer's public entry point, at the
attribute its caller looks it up through, with a wrapper that records a
span: name, start, end, parent span and the id of the item or event it
belongs to.  Spans stay in memory; :meth:`Tracer.unit_totals` turns them
into per-unit self and inclusive times when the run ends.  A layer's
self time is its span's duration minus its direct child spans.

Nothing here runs in an untraced run: :func:`installed` is only entered
when ``--trace 1`` is given, and every wrapper calls straight through
while :attr:`Tracer.enabled` is false.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

#: (owner, attribute, span name).  ``owner`` is ``module`` or
#: ``module:Class``; the attribute is the one the caller resolves at
#: call time (``solve_lid`` imports ``lid_matching_fast`` inside the
#: function, ``finalize_truncation`` imports the verifiers inside the
#: function, ``lid.py`` binds ``finalize_truncation`` at import).
STATIC_LAYERS = (
    ("repro.experiments.instances", "random_preference_instance",
     "experiments.instances.random_preference_instance"),
    ("repro.experiments.instances", "erdos_renyi", "overlay.topology.erdos_renyi"),
    ("repro.core.preferences:PreferenceSystem", "__init__",
     "core.preferences.PreferenceSystem"),
    ("repro.core.fast:FastInstance", "from_preference_system",
     "core.fast.FastInstance.from_preference_system"),
    ("repro.core.fast:FastInstance", "weight_table", "core.fast.FastInstance.weight_table"),
    ("repro.core.fast_lid", "lid_matching_fast", "core.fast_lid.lid_matching_fast"),
    ("repro.core.matching:Matching", "validate", "core.matching.Matching.validate"),
    ("repro.core.matching:Matching", "total_satisfaction",
     "core.matching.Matching.total_satisfaction"),
    ("repro.core.lid", "finalize_truncation", "core.truncation.finalize_truncation"),
    ("repro.core.truncation", "lic_baseline_satisfaction",
     "core.truncation.lic_baseline_satisfaction"),
    ("repro.baselines.verify", "count_blocking_pairs",
     "baselines.verify.count_blocking_pairs"),
    ("repro.baselines.verify", "count_weighted_blocking_pairs",
     "baselines.verify.count_weighted_blocking_pairs"),
)

SERVICE_LAYERS = (
    ("repro.overlay.churn", "build_preference_system",
     "overlay.builder.build_preference_system"),
    ("repro.overlay.churn:WeightCache", "refresh", "overlay.churn.WeightCache.refresh"),
    ("repro.service.service", "greedy_repair", "overlay.churn.greedy_repair"),
    ("repro.service.guards:ServiceGuard", "check_structure",
     "service.guards.check_structure"),
    ("repro.service.guards:ServiceGuard", "check_weights", "service.guards.check_weights"),
    ("repro.service.service:MatchingService", "snapshot",
     "service.MatchingService.snapshot"),
    ("repro.service.checkpoint", "write_checkpoint", "service.checkpoint.write_checkpoint"),
)


class Tracer:
    """In-memory span recorder for one benchmark process.

    ``spans`` holds ``[name, start, end, parent, unit]`` lists, where
    ``parent`` is the index of the enclosing span (``None`` at the root)
    and ``unit`` the item or event id current when the span opened.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.enabled = False
        self.unit = None
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self.unit])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record ``name`` around the block when tracing is enabled."""
        if not self.enabled:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def unit_totals(self) -> dict:
        """``{unit: {name: [self_s, inclusive_s, calls]}}`` over closed spans."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, unit in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out: dict = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0, 0]))
        for k, (name, t0, t1, parent, unit) in enumerate(self.spans):
            rec = out[unit][name]
            rec[0] += (t1 - t0) - child[k]
            rec[1] += t1 - t0
            rec[2] += 1
        return out


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


@contextlib.contextmanager
def installed(tracer: Tracer, layers):
    """Patch every layer entry point for the duration of the block."""
    undo = []
    try:
        for owner_name, attr, name in layers:
            owner = _resolve(owner_name)
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(tracer.wrap(raw.__func__, name))
            else:
                new = tracer.wrap(raw, name)
            undo.append((owner, attr, raw, attr in vars(owner)))
            setattr(owner, attr, new)
        yield tracer
    finally:
        for owner, attr, raw, own in reversed(undo):
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
