"""Time-series rendering: many steps, one configured renderer.

The production loop the paper's system serves: a simulation emits one
file per time step; visualization reads and renders each.  This driver
adds the two knobs such campaigns use — a camera orbit across frames
and frame skipping — and accumulates the per-stage timing the paper's
Fig. 6 aggregates.

Two campaign drivers share one result type:

* :func:`render_time_series` — the sequential oracle: read, render,
  composite, repeat.  Campaign elapsed time is the plain sum of every
  frame's stages.
* :class:`PipelinedTimeSeriesRenderer` — software pipelining across
  frames: while frame t renders and composites, the collective read
  for timestep t+1 (already planned, priced, and issued through the
  async split in :mod:`repro.pio.reader`) is in flight, so campaign
  makespan approaches ``max(io, render+composite)`` per frame instead
  of their sum.  The *functional* data path is unchanged — each frame
  still renders through :meth:`ParallelVolumeRenderer.render_frame`
  with exactly the bytes the sequential path would read — so images
  stay bitwise identical to the oracle at every ``prefetch_depth``;
  only the campaign *clock* composition differs, computed by
  :func:`simulate_pipeline` from the frames' stage costs.

Overlapped reads are not priced in isolation: :func:`simulate_pipeline`
serves every read's priced demand from one shared store under a
contention discipline, which conserves storage bandwidth across
concurrent prefetches (DESIGN.md §15).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Sequence

import numpy as np

from repro.core.pipeline import FrameResult, ParallelVolumeRenderer
from repro.core.timing import FrameTiming
from repro.obs.books import row_failures
from repro.obs.tracer import CAT_PREFETCH, Tracer
from repro.pio.reader import DatasetHandle, collective_read_blocks_async
from repro.render.camera import Camera
from repro.utils.errors import ConfigError
from repro.utils.validation import check_int

#: Tracer lanes of the campaign trace: the storage pipeline vs compute.
IO_LANE = 0
COMPUTE_LANE = 1

#: How concurrent reads share the store (DESIGN.md §15): ``fifo`` serves
#: them one at a time in issue order, ``fair`` shares bandwidth equally.
DISCIPLINES = ("fifo", "fair")
_INF = float("inf")
#: Remaining demand (s) at which a fair-shared read counts as served.
_EPS = 1e-12


@dataclass(frozen=True)
class FrameSlot:
    """One frame's place on the campaign timeline (simulated seconds)."""

    index: int
    io_demand_s: float  # priced collective-read time, alone on storage
    compute_demand_s: float  # render + composite seconds
    read_issue_s: float  # prefetch submitted to the shared store
    read_start_s: float  # bytes first flowed (fifo: head of queue)
    read_done_s: float
    compute_start_s: float
    compute_done_s: float

    @property
    def read_wait_s(self) -> float:
        """Queueing/slowdown behind other in-flight reads."""
        return (self.read_done_s - self.read_issue_s) - self.io_demand_s


@dataclass
class PipelineTimeline:
    """The simulated campaign schedule one pipelined run produced."""

    slots: list[FrameSlot]
    prefetch_depth: int
    discipline: str

    @property
    def makespan_s(self) -> float:
        return self.slots[-1].compute_done_s if self.slots else 0.0

    def failures(self, tol: float = 1e-9) -> list[str]:
        """Violated timeline invariants (empty means consistent).

        Checks causality (compute after its read, reads served after
        issue), in-order non-overlapping compute spans as long as their
        demands, work conservation at the shared store, and the
        makespan identity.
        """
        rows = []
        prev_compute, prev_read = 0.0, 0.0
        for s in self.slots:
            f, start = f"frame {s.index}", s.compute_start_s
            in_order = self.discipline != "fifo" or s.read_done_s >= prev_read - tol
            full_bw = s.read_done_s - s.read_start_s >= s.io_demand_s - tol
            rows += [
                (f"{f} computes after its read", start >= s.read_done_s - tol, True),
                (f"{f} computes after frame {s.index - 1}", start >= prev_compute - tol, True),
                (f"{f} compute span vs demand", s.compute_done_s - start, s.compute_demand_s, tol),
                (f"{f} read served after issue", s.read_start_s >= s.read_issue_s - tol, True),
                (f"{f} read in fifo order", in_order, True),
                (f"{f} read no faster than full bandwidth", full_bw, True),
            ]
            prev_compute, prev_read = s.compute_done_s, s.read_done_s
        if self.slots:
            last = max(s.compute_done_s for s in self.slots)
            rows.append(("makespan vs last compute end", self.makespan_s, last, tol))
        return row_failures(rows)


def check_pipeline(prefetch_depth: int, discipline: str) -> int:
    """The pipeline's knobs, validated; returns the depth as an int."""
    if discipline not in DISCIPLINES:
        raise ConfigError(
            f"unknown contention discipline {discipline!r}; choose from {DISCIPLINES}"
        )
    return check_int("prefetch_depth", prefetch_depth, 0)


def simulate_pipeline(
    io_seconds: Sequence[float],
    compute_seconds: Sequence[float],
    prefetch_depth: int = 1,
    discipline: str = "fifo",
) -> PipelineTimeline:
    """Schedule a depth-k prefetch pipeline over per-frame stage costs.

    ``prefetch_depth`` is the number of timesteps that may be read
    *ahead of* the frame currently computing (k+1 volume buffers); 0
    reproduces the sequential schedule exactly.  The read for frame j
    is issued at 0 for ``j <= k``, else when frame j-k-1's compute ends
    and frees its buffer; every read's priced demand is served by one
    shared store under ``discipline``, and frame j's compute starts once
    both its read and frame j-1's compute are done.  Deterministic — the
    same inputs give bitwise the same timeline — and shared by the core
    campaign driver and the farm's campaign job pricing, so both tiers
    answer "what does overlap buy" with one model.
    """
    if len(io_seconds) != len(compute_seconds):
        raise ConfigError(
            f"stage cost lists disagree: {len(io_seconds)} io vs "
            f"{len(compute_seconds)} compute entries"
        )
    depth = check_pipeline(prefetch_depth, discipline)
    io = [float(x) for x in io_seconds]
    rc = [float(x) for x in compute_seconds]
    for i, (r, c) in enumerate(zip(io, rc)):
        if not 0 <= r < _INF:
            raise ConfigError(f"frame {i} read demand must be >= 0 and finite, got {r!r}")
        if not 0 <= c < _INF:
            raise ConfigError(f"frame {i} compute demand must be >= 0 and finite, got {c!r}")
    times = (_fifo if discipline == "fifo" else _fair)(io, rc, depth)
    slots = [FrameSlot(i, io[i], rc[i], *row) for i, row in enumerate(zip(*times))]
    if slots and not slots[-1].compute_done_s < _INF:
        raise ConfigError("stage demands overflow the campaign clock")
    return PipelineTimeline(slots, depth, discipline)


def _fifo(io: list[float], rc: list[float], depth: int) -> tuple[list[float], ...]:
    """Reads one at a time in issue order at full bandwidth."""
    n = len(io)
    issue, start, done, c0, c1 = ([0.0] * n for _ in range(5))
    free = end = 0.0  # store frees up / previous compute ends
    for j in range(n):
        if j > depth:
            issue[j] = c1[j - depth - 1]
        start[j] = max(issue[j], free)
        done[j] = free = start[j] + io[j]
        c0[j] = max(free, end)
        c1[j] = end = c0[j] + rc[j]
    return issue, start, done, c0, c1


def _fair(io: list[float], rc: list[float], depth: int) -> tuple[list[float], ...]:
    """Processor sharing: k in-flight reads each progress at rate 1/k.

    The first ``depth + 1`` reads submit at t = 0 before anything
    completes; at any later tie a completion goes first.  A completion
    due at the last event's instant with no read within :data:`_EPS`
    never progresses (``t + remaining * k == t``): a submission due then
    goes first, else the read with the least remaining demand retires.
    """
    n = len(io)
    issue, done, c0, c1 = ([0.0] * n for _ in range(4))
    served = [False] * n
    nxt = min(depth + 1, n)  # next read to submit
    active = [[io[j], j] for j in range(nxt)]  # [remaining demand, frame]
    t = end = 0.0  # last submission or completion; last compute end
    ci = 0  # next frame to compute
    while ci < n:
        gate = nxt - depth - 1
        ts = c1[gate] if nxt < n and gate < ci else None
        tc, stalled = _INF, False
        if active:
            least = min(active, key=itemgetter(0))
            tc = t + max(0.0, least[0] * len(active))
            stalled = tc == t and least[0] > _EPS
        submit = ts is not None and (not active or ts < tc or (ts == tc and stalled))
        now = ts if submit else tc
        if now > t and active:
            rate = 1.0 / len(active)
            for a in active:
                a[0] -= (now - t) * rate
        t = now
        if submit:
            issue[nxt] = now
            active.append([io[nxt], nxt])
            nxt += 1
            continue
        if stalled:
            least[0] = 0.0  # no progress is possible: retire it below
        for rem, j in active:
            if rem <= _EPS:
                done[j], served[j] = now, True
        active = [a for a in active if a[0] > _EPS]
        while ci < n and served[ci]:
            c0[ci] = max(done[ci], end)
            c1[ci] = end = c0[ci] + rc[ci]
            ci += 1
    return issue, issue, done, c0, c1


def campaign_trace(timeline: PipelineTimeline) -> Tracer:
    """Render a timeline as campaign-absolute spans (Chrome-traceable).

    Two lanes: reads on :data:`IO_LANE`, frame compute on
    :data:`COMPUTE_LANE`, all in :data:`CAT_PREFETCH` — so a pipelined
    campaign's trace visibly shows I/O sliding under compute.
    """
    tracer = Tracer(enabled=True)
    for s in timeline.slots:
        tracer.span(
            IO_LANE, f"read[{s.index}]", CAT_PREFETCH,
            s.read_start_s, s.read_done_s,
            demand_s=s.io_demand_s, wait_s=s.read_wait_s,
            issue_s=s.read_issue_s, depth=timeline.prefetch_depth,
        )
        tracer.span(
            COMPUTE_LANE, f"frame[{s.index}]", CAT_PREFETCH,
            s.compute_start_s, s.compute_done_s,
            demand_s=s.compute_demand_s,
        )
    tracer.count("prefetch.frames", len(timeline.slots))
    return tracer


@dataclass
class TimeSeriesResult:
    """All frames of one campaign plus aggregate accounting.

    ``total_timing`` sums each stage across frames — the paper's
    Fig. 6 aggregate, and exactly the campaign elapsed time *only for
    the sequential schedule*.  Once stages overlap, wall clock is
    :attr:`makespan_s` (from the pipeline timeline) and the difference
    is :attr:`overlap_saved_s`; the sequential driver reports
    ``makespan_s == sequential_s`` so the two accountings agree where
    they should.
    """

    frames: list[FrameResult]
    prefetch_depth: int = 0
    timeline: PipelineTimeline | None = None
    campaign_trace: Tracer | None = field(default=None, repr=False)

    @property
    def images(self) -> list[np.ndarray]:
        return [f.image for f in self.frames]

    @property
    def total_timing(self) -> FrameTiming:
        return FrameTiming(
            io_s=sum(f.timing.io_s for f in self.frames),
            render_s=sum(f.timing.render_s for f in self.frames),
            composite_s=sum(f.timing.composite_s for f in self.frames),
        )

    @property
    def mean_frame_s(self) -> float:
        return self.total_timing.total_s / len(self.frames) if self.frames else 0.0

    @property
    def sequential_s(self) -> float:
        """What the campaign would take with no overlap: the stage sums."""
        return sum(f.timing.total_s for f in self.frames)

    @property
    def makespan_s(self) -> float:
        """Campaign wall clock on the simulated machine."""
        return self.timeline.makespan_s if self.timeline is not None else self.sequential_s

    @property
    def overlap_saved_s(self) -> float:
        """Simulated seconds the prefetch pipeline saved vs sequential."""
        return self.sequential_s - self.makespan_s

    @property
    def speedup(self) -> float:
        return self.sequential_s / self.makespan_s if self.makespan_s else 1.0

    def accounting_failures(self, tol: float = 1e-6) -> list[str]:
        """Violated campaign accounting identities (empty = books balance).

        Reconciles the headline numbers against the timeline and the
        campaign trace: per-frame demands must match the frames' own
        stage spans, the timeline must be internally consistent, the
        pipelined makespan must not exceed the sequential one, and the
        trace spans must retell the timeline exactly.
        """
        tl = self.timeline
        if tl is None:
            return []
        rows = [("timeline slots vs frames", len(tl.slots), len(self.frames))]
        for f, s in zip(self.frames, tl.slots):
            t = f.timing
            rows += [
                (f"frame {s.index} io demand vs io_s", s.io_demand_s, t.io_s, tol),
                (f"frame {s.index} compute demand vs render + composite",
                 s.compute_demand_s, t.render_s + t.composite_s, tol),
            ]
        makespan = self.makespan_s
        rows.append(("makespan within sequential", makespan <= self.sequential_s + tol, True))
        if self.campaign_trace is not None:
            spans = self.campaign_trace.frame_spans(cat=CAT_PREFETCH)
            rows.append(("campaign spans, two per slot", len(spans), 2 * len(tl.slots)))
            if spans and len(spans) == 2 * len(tl.slots):
                rows.append(("trace end vs makespan", max(sp.t1 for sp in spans), makespan, tol))
        return tl.failures() + row_failures(rows)


def _campaign_cameras(
    renderer: ParallelVolumeRenderer,
    handles: Sequence[DatasetHandle],
    orbit_degrees_per_frame: float,
    camera_factory: Callable[[int], Camera] | None,
) -> list[Camera]:
    """Per-frame cameras of a campaign, for both the sequential and the
    pipelined driver: ``camera_factory(i)``, else the orbit, else the
    renderer's own camera."""
    base = renderer.camera
    cameras: list[Camera] = []
    for i, handle in enumerate(handles):
        if camera_factory is not None:
            cameras.append(camera_factory(i))
        elif orbit_degrees_per_frame:
            grid = tuple(int(s) for s in handle.shape)
            cameras.append(
                Camera.looking_at_volume(
                    grid,  # type: ignore[arg-type]
                    width=base.width,
                    height=base.height,
                    azimuth_deg=30.0 + i * orbit_degrees_per_frame,
                )
            )
        else:
            cameras.append(base)
    return cameras


def render_time_series(
    renderer: ParallelVolumeRenderer,
    handles: Sequence[DatasetHandle],
    orbit_degrees_per_frame: float = 0.0,
    camera_factory: Callable[[int], Camera] | None = None,
) -> TimeSeriesResult:
    """Render each time step's handle in order.

    ``orbit_degrees_per_frame`` rotates the camera azimuth between
    frames (the usual fly-around); ``camera_factory(step)`` overrides
    the camera entirely when given.  The renderer's other settings
    (transfer function, step, policy, hints) apply to every frame.

    This is the *sequential oracle*: the pipelined driver must match it
    bitwise, frame for frame.
    """
    if not handles:
        raise ConfigError("no time steps to render")
    cameras = _campaign_cameras(renderer, handles, orbit_degrees_per_frame, camera_factory)
    base = renderer.camera
    frames = []
    # The camera is restored in a finally so an exception mid-campaign
    # cannot leave the shared renderer pointed at an orbit frame —
    # farm-level renderer reuse depends on the camera being stable
    # across campaigns.
    try:
        for camera, handle in zip(cameras, handles):
            renderer.camera = camera
            frames.append(renderer.render_frame(handle))
    finally:
        renderer.camera = base
    return TimeSeriesResult(frames)


class PipelinedTimeSeriesRenderer:
    """Depth-k prefetched campaigns over one configured renderer.

    ``prefetch_depth`` timesteps may be in flight beyond the frame
    currently rendering (0 = sequential buffering; 1 = the classic
    double buffer).  Frames are produced through the *same*
    :meth:`ParallelVolumeRenderer.render_frame` as the sequential
    oracle — the prefetch only moves the collective read's plan/issue
    ahead via :func:`collective_read_blocks_async`, handing each frame
    the bytes it would have read inline — so images, per-frame timings,
    message counts, and fault behavior are bitwise identical at every
    depth.  The campaign clock is then composed by
    :func:`simulate_pipeline` with honest concurrent-read contention.
    """

    def __init__(
        self,
        renderer: ParallelVolumeRenderer,
        prefetch_depth: int = 1,
        discipline: str = "fifo",
    ):
        self.renderer = renderer
        self.prefetch_depth = check_pipeline(prefetch_depth, discipline)
        self.discipline = discipline

    def render(
        self,
        handles: Sequence[DatasetHandle],
        orbit_degrees_per_frame: float = 0.0,
        camera_factory: Callable[[int], Camera] | None = None,
        log=None,
    ) -> TimeSeriesResult:
        """Render the campaign with depth-k prefetch; returns frames + timeline.

        ``log`` (an :class:`~repro.storage.accesslog.AccessLog`)
        records accesses in *prefetch issue order* — under overlap the
        reads for t+1..t+k land before frame t's straggler records,
        which is the pipelined order of events.
        """
        if not handles:
            raise ConfigError("no time steps to render")
        renderer = self.renderer
        n = len(handles)
        cameras = _campaign_cameras(
            renderer, handles, orbit_degrees_per_frame, camera_factory
        )
        base = renderer.camera
        frames: list[FrameResult] = []
        pending: dict[int, object] = {}

        def issue(j: int) -> None:
            """Plan + issue frame j's collective read (prefetch)."""
            if j in pending or j >= n:
                return
            handle = handles[j]
            # The same lookup render_frame makes — warming the shared
            # FramePlanCache, so the render is a guaranteed hit and
            # consumes the identical plan object.
            plan = renderer.frame_plan(cameras[j], handle)
            pending[j] = collective_read_blocks_async(
                handle, plan.read_blocks, renderer.hints, renderer.stripe, log
            ).issue()

        try:
            for i in range(n):
                # Keep i..i+depth in flight, issued in frame order.
                for j in range(i, min(i + self.prefetch_depth, n - 1) + 1):
                    issue(j)
                renderer.camera = cameras[i]
                frames.append(
                    renderer.render_frame(handles[i], log=log, preread=pending.pop(i))
                )
        finally:
            renderer.camera = base

        timeline = simulate_pipeline(
            [f.timing.io_s for f in frames],
            [f.timing.render_s + f.timing.composite_s for f in frames],
            self.prefetch_depth,
            self.discipline,
        )
        return TimeSeriesResult(
            frames,
            prefetch_depth=self.prefetch_depth,
            timeline=timeline,
            campaign_trace=campaign_trace(timeline),
        )
