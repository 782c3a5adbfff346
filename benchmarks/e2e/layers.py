"""Per-layer tracing from outside the program.

Two instruments share the one traced repetition, both owned by the
benchmark (scoped timers inside ``repro.obs`` are a later change):

* **Spans** around each call into a layer's public function.  The
  functions in :data:`SPAN_POINTS` are wrapped for the duration of the
  traced repetition and restored afterwards; a span records name,
  start, end and the span that caused it.  A span's self time is its
  duration minus the part its child spans cover.
* **A profiler roll-up by module**: ``cProfile`` self time and call
  counts summed per layer (:data:`spec.LAYERS`).  C builtins, numpy
  and the stdlib have no layer of their own — their time is charged to
  the ``repro`` module that called them, through the profiler's caller
  edges, so the layers' self times add up to the traced wall time.

End-to-end metrics are never taken from a traced repetition.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import os
import pstats
import time
from collections import defaultdict
from contextlib import contextmanager

import repro

import spec

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: (module to patch, attribute path in it, span name).  Only coarse
#: entry points — nothing called per message or per event.
SPAN_POINTS = (
    ("repro.vmpi.runner", "MPIWorld.for_cores", "vmpi.runner.for_cores"),
    ("repro.vmpi.runner", "MPIWorld.run", "vmpi.runner.run"),
    ("repro.vmpi.shardworld", "run_parallel", "vmpi.shardworld.run_parallel"),
    ("repro.sim.engine", "Engine.run", "sim.engine.run"),
    ("repro.core.pipeline", "ParallelVolumeRenderer.render_frame", "core.pipeline.render_frame"),
    ("repro.core.plan", "FramePlanCache.plan_for", "core.plan.plan_for"),
    ("repro.core.plan", "schedule_from_geometry", "compositing.schedule.schedule_from_geometry"),
    ("repro.core.plan", "build_ray_plan", "render.raycast.build_ray_plan"),
    ("repro.core.pipeline", "render_block", "render.raycast.render_block"),
    ("repro.compositing.directsend", "composite_over", "render.image.composite_over"),
    ("repro.pio.reader", "AsyncBlockRead.__init__", "pio.reader.plan"),
    ("repro.pio.reader", "AsyncBlockRead.issue", "pio.reader.issue"),
    ("repro.pio.reader", "AsyncBlockRead.wait", "pio.reader.wait"),
    ("repro.pio.twophase", "plan_two_phase", "pio.twophase.plan_two_phase"),
    ("repro.core.timeseries", "simulate_pipeline", "core.timeseries.simulate_pipeline"),
    ("repro.farm.scenario", "FarmScenario.build", "farm.scenario.build"),
    ("repro.farm.service", "RenderFarm.run", "farm.service.run"),
)

#: Spans kept per traced repetition; later ones are only counted.
MAX_SPANS = 20_000


class SpanRecorder:
    """In-memory spans; written out when the traced repetition ends."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.dropped = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if len(self.spans) >= MAX_SPANS:
            self.dropped += 1
            yield
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"id": sid, "name": name, "parent": parent,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def by_name(self) -> dict[str, dict]:
        """name -> {count, total_s, self_s}; self = total minus children."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        table: dict[str, dict] = {}
        for s in self.spans:
            row = table.setdefault(s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            duration = s["end"] - s["start"]
            row["count"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_time[s["id"]]
        return table


def _wrap(fn, name: str, recorder: SpanRecorder):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            return fn(*args, **kwargs)

    return wrapper


@contextmanager
def span_points(recorder: SpanRecorder):
    """Wrap every SPAN_POINTS function; restore the originals on exit."""
    undo = []
    try:
        for module_name, path, name in SPAN_POINTS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p)
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                patched = classmethod(_wrap(raw.__func__, name, recorder))
            else:
                patched = _wrap(raw, name, recorder)
            setattr(owner, attr, patched)
            undo.append((owner, attr, raw))
        yield
    finally:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)


# -- profiler roll-up --------------------------------------------------


def layer_of(filename: str) -> str | None:
    """Layer of a profiled function, or None outside ``repro``."""
    if not filename.startswith(_REPRO_DIR):
        return None
    module = filename[len(_REPRO_DIR):-len(".py")].replace(os.sep, ".")
    module = spec.FOLD.get(module, module)
    while module:
        if module in spec.LAYERS:
            return module
        module = module.rpartition(".")[0]
    return "other"


def rollup(profile: cProfile.Profile) -> tuple[dict[str, float], dict[str, int]]:
    """(self seconds, calls) per layer from one profile.

    A function outside ``repro`` hands each caller edge's self time to
    that caller's layer; when the caller is itself outside ``repro``
    (numpy python code calling a C builtin) the edge is split over the
    caller's own callers in proportion to their cumulative time.
    """
    stats = pstats.Stats(profile).stats  # func -> (cc, nc, tt, ct, callers)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    memo: dict[tuple, dict[str, float]] = {}

    def owners(func: tuple) -> dict[str, float]:
        """Layer shares (summing to 1) that pay for ``func``'s time."""
        if func in memo:
            return memo[func]
        layer = layer_of(func[0])
        if layer is not None:
            memo[func] = {layer: 1.0}
            return memo[func]
        memo[func] = {"other": 1.0}  # cycle guard; also benchmark code
        callers = stats.get(func, (0, 0, 0.0, 0.0, {}))[4]
        total = sum(edge[3] for edge in callers.values())
        if total > 0:
            shares: dict[str, float] = defaultdict(float)
            for caller, edge in callers.items():
                for layer, w in owners(caller).items():
                    shares[layer] += w * edge[3] / total
            memo[func] = dict(shares)
        return memo[func]

    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        layer = layer_of(func[0])
        if layer is not None:
            self_s[layer] += tt
            calls[layer] += nc
        elif callers:
            for caller, edge in callers.items():
                for owner, w in owners(caller).items():
                    self_s[owner] += edge[2] * w
        else:
            self_s["other"] += tt
    return dict(self_s), dict(calls)


def traced_call(fn, recorder: SpanRecorder, name: str):
    """Run ``fn()`` once under spans + profiler; (result, wall seconds,
    profile).  Timed here, not by the caller: installing the span
    points may import modules, which is not the program's time.  Hand
    the profile to :func:`rollup` afterwards.
    """
    profile = cProfile.Profile()
    with span_points(recorder), recorder.span(name):
        t0 = time.perf_counter()
        profile.enable()
        try:
            result = fn()
        finally:
            profile.disable()
        return result, time.perf_counter() - t0, profile
