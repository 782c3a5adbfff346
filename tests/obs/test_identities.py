"""Every accounting identity can fail: one row per identity.

Four checkers reconcile a result's headline numbers against its own
records, clocks and spans — ``FarmResult.accounting_failures()``,
``TimeSeriesResult.accounting_failures()``, ``PipelineTimeline.failures()``
and ``ProgressiveResult.accounting_failures()``.  Each row starts from a
small real run whose checker returns ``[]`` (asserted), breaks one
identity — one field, one span, or one clock shift — and asserts the
checker reports something.  Message text is never matched.  Two rows
cannot help breaking a second identity too: a disabled cache's hit is
also a doubly flagged record, and a first level landing after the last
is also a level clock that does not increase.

Bases: the default farm scenario (as is, with its result cache off, and
with ``orbit0`` submitted as one campaign job), ``flash`` (edge and
admission; with coalescing off it sheds), the interactive miniature
(ladders), a compute-bound pipeline schedule, a 3-frame
depth-2 pipelined campaign with its campaign trace, and a complete
3-level ladder with a tracer.

Two identities are deliberately not rows: ``overlap_saved_s ==
sequential_s - makespan_s`` and ``ttfp_s == levels[0].t_done_s`` state
the properties' own definitions, so no result can break them.
"""

from __future__ import annotations

import copy
import dataclasses

import pytest

from repro.core import ParallelVolumeRenderer, PipelinedTimeSeriesRenderer
from repro.core.timeseries import simulate_pipeline
from repro.data import SupernovaModel, extract_variable_raw
from repro.farm import default_scenario, flash_scenario, interactive_selftest_scenario
from repro.obs import Tracer
from repro.pio import IOHints, RawHandle
from repro.progressive import ProgressiveRenderer
from repro.render import Camera, TransferFunction
from repro.vmpi import MPIWorld

GRID = (12, 12, 12)


# -- bases ---------------------------------------------------------------


def _farm(scenario):
    return scenario.build().run()


def _campaign_farm():
    scenario = default_scenario()
    sessions = tuple(
        dataclasses.replace(s, campaign=True) if s.name == "orbit0" else s
        for s in scenario.sessions
    )
    return _farm(dataclasses.replace(scenario, sessions=sessions))


def _renderer(**kwargs):
    camera = Camera.looking_at_volume(GRID, width=24, height=24)
    return ParallelVolumeRenderer(
        MPIWorld.for_cores(8), camera, TransferFunction.supernova(), step=0.9,
        hints=IOHints(cb_buffer_size=4096, cb_nodes=2), **kwargs,
    )


def _campaign():
    handles = [
        RawHandle(extract_variable_raw(SupernovaModel(GRID, seed=5, time=0.3 + 0.2 * t), "vx"))
        for t in range(3)
    ]
    return PipelinedTimeSeriesRenderer(_renderer(), prefetch_depth=2).render(
        handles, orbit_degrees_per_frame=25.0
    )


def _ladder():
    model = SupernovaModel(GRID, seed=1530)
    handle = RawHandle(extract_variable_raw(model, "vx"))
    ladder = ProgressiveRenderer(_renderer(), levels=3, tracer=Tracer(enabled=True))
    return ladder.render_ladder(handle, field=model.field("vx"))


BASES = {
    "default": lambda: _farm(default_scenario()),
    "default-cache0": lambda: _farm(default_scenario(result_cache_entries=0)),
    "default-campaign": _campaign_farm,
    "flash": lambda: _farm(flash_scenario()),
    "flash-shed": lambda: _farm(flash_scenario(coalesce=False)),
    "interactive": lambda: _farm(interactive_selftest_scenario()),
    "campaign": _campaign,
    # Compute-bound, so reads finish well before their frames compute
    # and one read's clock can move without touching another identity.
    "timeline": lambda: simulate_pipeline([1.0] * 3, [5.0] * 3, prefetch_depth=2),
    "ladder": _ladder,
}

_cache: dict[str, object] = {}


def _base(name):
    if name not in _cache:
        _cache[name] = BASES[name]()
    return copy.deepcopy(_cache[name])


def _failures(result):
    if hasattr(result, "accounting_failures"):
        return result.accounting_failures()
    return result.failures()


# -- one-change helpers --------------------------------------------------


def _set(obj, **fields):
    """Set each field; a callable value is first applied to ``obj``."""
    for name, value in fields.items():
        setattr(obj, name, value(obj) if callable(value) else value)


def _bump(obj, name, by=1):
    setattr(obj, name, getattr(obj, name) + by)


def _bump_key(d, key):
    d[key] += 1


def _pick(records, pred):
    for r in records:
        if pred(r):
            return r
    raise AssertionError("the base run has no record of the kind this row needs")


def _drop_span(tracer, name):
    for i, s in enumerate(tracer.spans):
        if s.name == name:
            del tracer.spans[i]
            return
    raise AssertionError(f"the base run recorded no {name!r} span")


def _slot(timeline, i, **fields):
    """Replace frozen slot ``i``; a callable value maps the old slot."""
    old = timeline.slots[i]
    fields = {k: v(old) if callable(v) else v for k, v in fields.items()}
    timeline.slots[i] = dataclasses.replace(old, **fields)


def _shift_compute(timeline, i, dt):
    """Move both ends of slot ``i``'s compute span by ``dt`` (a callable
    maps the old slot), so the span still equals its demand."""
    old = timeline.slots[i]
    dt = dt(old) if callable(dt) else dt
    _slot(timeline, i, compute_start_s=old.compute_start_s + dt,
          compute_done_s=old.compute_done_s + dt)


def _shift(levels, dt):
    for lf in levels:
        _set(lf, t_start_s=lf.t_start_s + dt, t_done_s=lf.t_done_s + dt)


def _rendered(r):
    return r.rendered


def _cache_hit(r):
    return r.cache_hit


def _campaign_job(r):
    return r.request.is_campaign and r.payload is not None


def _ladder_job(r):
    return r.request.is_progressive and r.rendered and r.payload is not None


def _complete_ladder(r):
    return _ladder_job(r) and not r.ladder_cancelled


def _cancelled_ladder(r):
    return _ladder_job(r) and r.ladder_cancelled


# -- the rows: (base, one change) ----------------------------------------

FARM_ROWS = {
    # request conservation and per-record flags
    "coalesced-counter": ("default", lambda r: _bump(r, "coalesced_requests")),
    "rejected-flag": ("flash-shed", lambda r: _set(r.rejected[0], rejected=False)),
    "served-not-rejected": (
        "default", lambda r: _set(_pick(r.records, _cache_hit), rejected=True)
    ),
    "done-after-arrival": (
        "default",
        lambda r: _set(_pick(r.records, _rendered), t_done=lambda x: x.t_arrive - 1.0),
    ),
    "utilization-bound": (
        "default", lambda r: _set(r, util_node_seconds=3.0 * r.total_nodes * r.makespan_s)
    ),
    "unrendered-no-service-time": (
        "default",
        lambda r: _set(_pick(r.records, _cache_hit), t_serve=lambda x: x.t_done - 1.0),
    ),
    "served-has-payload": ("default", lambda r: _set(r.records[0], payload=None)),
    "ttfp-within-latency": (
        "default", lambda r: _set(r.records[0], t_first_pixel=lambda x: x.t_done + 1.0)
    ),
    # result cache
    "lookup-hits": ("default", lambda r: _bump(r, "result_cache_hits")),
    "lookup-misses": ("default", lambda r: _bump(r, "result_cache_misses")),
    "disabled-cache-lookups": ("default-cache0", lambda r: _bump(r, "result_cache_misses")),
    "disabled-cache-hits": (
        "default-cache0", lambda r: _set(_pick(r.records, lambda x: x.coalesced), cache_hit=True)
    ),
    # edge and admission tiers
    "edge-hits": ("flash", lambda r: _bump_key(r.edge, "hits")),
    "admission-rejected": ("flash", lambda r: _bump_key(r.admission, "rejected")),
    # campaigns
    "campaign-payload-type": (
        "default-campaign", lambda r: _set(_pick(r.records, _campaign_job), payload=object())
    ),
    "campaign-frames": (
        "default-campaign", lambda r: _bump(_pick(r.records, _campaign_job).payload, "frames")
    ),
    "campaign-overlap": (
        "default-campaign",
        lambda r: _set(
            _pick(r.records, _campaign_job).payload, makespan_s=lambda p: p.sequential_s + 1.0
        ),
    ),
    # ladders
    "first-pixel-window": (
        "interactive",
        lambda r: _set(_pick(r.records, _ladder_job), t_first_pixel=lambda x: x.t_arrive - 1.0),
    ),
    "ladder-payload-type": (
        "interactive", lambda r: _set(_pick(r.records, _complete_ladder), payload=object())
    ),
    "ladder-first-pixel-recorded": (
        "interactive", lambda r: _set(_pick(r.records, _complete_ladder), t_first_pixel=None)
    ),
    "ladder-levels": (
        "interactive", lambda r: _bump(_pick(r.records, _complete_ladder).payload, "levels")
    ),
    "ladder-clock-increasing": (  # the middle level lands with the first
        "interactive",
        lambda r: _set(
            _pick(r.records, _complete_ladder).payload,
            level_end_s=lambda p: (p.level_end_s[0],) * 2 + p.level_end_s[2:],
        ),
    ),
    "ladder-ttfp-within-total": (  # the first level lands after the last
        "interactive",
        lambda r: _set(
            _pick(r.records, _complete_ladder).payload,
            level_end_s=lambda p: (p.level_end_s[-1] + 1.0,) + p.level_end_s[1:],
        ),
    ),
    "cancelled-ladder-short": (
        "interactive",
        lambda r: _set(_pick(r.records, _cancelled_ladder), levels_total=lambda x: x.levels_done),
    ),
    "complete-ladder-whole": (
        "interactive", lambda r: _bump(_pick(r.records, _complete_ladder), "levels_total")
    ),
    # Untraced, so the matching span count does not fire as well.
    "levels-published": (
        "interactive", lambda r: (_set(r, trace=None), _bump(r, "levels_published"))
    ),
    "ladders-cancelled": (
        "interactive", lambda r: (_set(r, trace=None), _bump(r, "ladders_cancelled"))
    ),
    "cancelled-node-seconds": ("interactive", lambda r: _bump(r, "cancelled_node_s", 1.0)),
    # span counts
    "queue-spans": ("default", lambda r: _drop_span(r.trace, "queue")),
    "serve-spans": ("default", lambda r: _drop_span(r.trace, "serve")),
    "alloc-spans": ("default", lambda r: _drop_span(r.trace, "alloc")),
    "killed-spans": ("default", lambda r: _bump(_pick(r.records, _rendered), "retries")),
    "edge-hit-spans": ("flash", lambda r: _drop_span(r.trace, "edge-hit")),
    "coalesced-spans": ("default", lambda r: _drop_span(r.trace, "coalesced")),
    "reject-spans": ("flash-shed", lambda r: _drop_span(r.trace, "reject")),
    "level-spans": ("interactive", lambda r: _drop_span(r.trace, "level")),
    "ladder-cancelled-spans": ("interactive", lambda r: _drop_span(r.trace, "ladder-cancelled")),
}

TIMELINE_ROWS = {
    "compute-after-read": (
        "timeline",
        lambda t: _shift_compute(t, 0, lambda s: s.read_done_s / 2 - s.compute_start_s),
    ),
    "compute-in-order": (
        "timeline",
        lambda t: _shift_compute(
            t, 0, t.slots[1].compute_start_s + 1.0 - t.slots[0].compute_done_s
        ),
    ),
    "compute-span-is-demand": (
        "timeline", lambda t: _slot(t, 0, compute_demand_s=lambda s: s.compute_demand_s + 1.0)
    ),
    "read-after-issue": (
        "timeline", lambda t: _slot(t, 1, read_start_s=lambda s: s.read_issue_s - 1.0)
    ),
    "fifo-read-order": (
        "timeline", lambda t: _slot(t, 1, read_done_s=t.slots[2].read_done_s + 1.0)
    ),
    "read-bandwidth": (
        "timeline", lambda t: _slot(t, 0, io_demand_s=lambda s: s.io_demand_s + 1.0)
    ),
    # The demand goes negative with its span: with every span as long
    # as its demand and in order, the last frame is also the last to end.
    "makespan-last-compute": (
        "timeline",
        lambda t: _slot(
            t, 2, compute_done_s=t.slots[1].compute_done_s - 1.0,
            compute_demand_s=t.slots[1].compute_done_s - 1.0 - t.slots[2].compute_start_s,
        ),
    ),
}

TIMESERIES_ROWS = {
    "timeline-consistent": (
        "campaign",
        lambda c: _shift_compute(
            c.timeline, 0, lambda s: s.read_done_s / 2 - s.compute_start_s
        ),
    ),
    "slots-per-frame": ("campaign", lambda c: c.frames.pop()),
    "io-demand": (
        "campaign", lambda c: _slot(c.timeline, 0, io_demand_s=lambda s: s.io_demand_s - 1e-3)
    ),
    "compute-demand": (  # the span shrinks with the demand
        "campaign",
        lambda c: _slot(
            c.timeline, 0, compute_demand_s=lambda s: s.compute_demand_s / 2,
            compute_done_s=lambda s: s.compute_done_s - s.compute_demand_s / 2,
        ),
    ),
    # Untraced, so the trace-end identity does not fire as well.
    "makespan-within-sequential": (
        "campaign",
        lambda c: (
            _set(c, campaign_trace=None),
            _shift_compute(c.timeline, 2, 10.0),
        ),
    ),
    "campaign-span-count": ("campaign", lambda c: c.campaign_trace.spans.pop()),
    "trace-ends-at-makespan": (
        "campaign",
        lambda c: c.campaign_trace.spans.append(
            dataclasses.replace(c.campaign_trace.spans.pop(), t1=c.makespan_s + 1.0)
        ),
    ),
}

LADDER_ROWS = {
    "delivered-something": ("ladder", lambda p: p.levels.clear()),
    "starts-at-zero": ("ladder", lambda p: _shift(p.levels, 1.0)),
    "levels-serial": ("ladder", lambda p: _shift(p.levels[2:], 1.0)),
    "levels-refine": ("ladder", lambda p: _set(p.levels[1], width=p.levels[0].width)),
    "level-duration": ("ladder", lambda p: _bump(p.levels[-1], "t_done_s", 1.0)),
    "complete-delivers-plan": ("ladder", lambda p: _bump(p, "levels_planned")),
    "complete-ends-full-res": ("ladder", lambda p: _set(p.levels[-1], scale=2)),
    "cancelled-drops-levels": ("ladder", lambda p: _set(p, cancelled=True)),
    "level-spans": ("ladder", lambda p: _drop_span(p.trace, "level")),
    "ttfp-marker": ("ladder", lambda p: _drop_span(p.trace, "ttfp")),
}

ROWS = {
    **{f"farm/{k}": v for k, v in FARM_ROWS.items()},
    **{f"timeline/{k}": v for k, v in TIMELINE_ROWS.items()},
    **{f"timeseries/{k}": v for k, v in TIMESERIES_ROWS.items()},
    **{f"ladder/{k}": v for k, v in LADDER_ROWS.items()},
}


@pytest.mark.parametrize("base", sorted(BASES))
def test_base_books_balance(base):
    assert _failures(_base(base)) == []


@pytest.mark.parametrize("row", list(ROWS))
def test_identity_can_fail(row):
    base, breaks = ROWS[row]
    result = _base(base)
    breaks(result)
    assert _failures(result) != []
