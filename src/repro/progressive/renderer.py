"""`ProgressiveRenderer`: one request becomes a resolution ladder.

Each ladder level is a *genuine* frame through the existing pipeline —
the level's pyramid copy is collectively read, block-rendered, and
composited through whatever :class:`CompositingBackend` the wrapped
renderer carries — on the wrapped renderer's one
:class:`~repro.core.plan.FramePlanCache` and partition.  The final
level renders the original handle through the original camera object,
so it is bitwise identical (image, message count, bytes on the wire,
stage timings) to a direct full-resolution render; the oracle tests
pin exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.pipeline import FrameResult, ParallelVolumeRenderer, volume_grid
from repro.obs.books import row_failures, span_count_failures
from repro.obs.tracer import CAT_PROGRESSIVE, Tracer
from repro.pio.reader import DatasetHandle, collective_read_blocks
from repro.progressive.ladder import build_pyramid, ladder_scales, levels_before_move
from repro.utils.errors import ConfigError


@dataclass
class LevelFrame:
    """One delivered rung of the ladder, on the ladder's own clock."""

    index: int
    scale: int
    width: int
    height: int
    t_start_s: float  # simulated seconds since the ladder began
    t_done_s: float
    frame: FrameResult

    @property
    def duration_s(self) -> float:
        return self.t_done_s - self.t_start_s


@dataclass
class _LadderPlan:
    """Prepared per-level inputs (handles + cameras), coarse to fine."""

    scales: tuple[int, ...]
    handles: list
    cameras: list


@dataclass
class ProgressiveResult:
    """What one ladder delivered, with its own reconcilable books."""

    levels: list[LevelFrame]
    levels_planned: int
    nodes: int
    cancelled: bool = False  # a camera move cancelled the un-started tail
    cancel_after_s: float | None = None
    trace: Tracer | None = field(default=None, repr=False)

    @property
    def ttfp_s(self) -> float:
        """Time to first pixel: when the coarsest level landed."""
        return self.levels[0].t_done_s if self.levels else 0.0

    @property
    def total_s(self) -> float:
        return self.levels[-1].t_done_s if self.levels else 0.0

    @property
    def cancelled_levels(self) -> int:
        return self.levels_planned - len(self.levels)

    @property
    def final(self) -> FrameResult | None:
        """The full-resolution frame, if the ladder got that far."""
        if self.levels and self.levels[-1].scale == 1:
            return self.levels[-1].frame
        return None

    @property
    def images(self) -> list[np.ndarray]:
        return [lf.frame.image for lf in self.levels]

    def accounting_failures(self) -> list[str]:
        """Violated ladder identities, human-readable; empty == sound."""
        levels, delivered, planned = self.levels, len(self.levels), self.levels_planned
        if not levels:
            return ["ladder delivered no levels"]
        rows = [("first level start", levels[0].t_start_s, 0.0)]
        for a, b in zip(levels, levels[1:]):  # levels are serial and refine
            rows += [
                (f"level {b.index} start vs level {a.index} end", b.t_start_s, a.t_done_s, 1e-9),
                (f"level {b.index} edge above level {a.index}'s", b.width > a.width, True),
            ]
        for lf in levels:
            total = lf.frame.timing.total_s
            rows.append((f"level {lf.index} duration vs stage total", lf.duration_s, total, 1e-9))
        if self.cancelled:
            rows.append(("cut ladder short of its plan", delivered < planned, True))
        else:
            rows.append(("levels delivered vs planned", delivered, planned))
            rows.append(("last level scale (1 = full resolution)", levels[-1].scale, 1))
        spans = {"level": delivered, "ttfp": 1}
        return row_failures(rows) + span_count_failures(self.trace, spans, cat=CAT_PROGRESSIVE)


class ProgressiveRenderer:
    """Turn one render request into a coarse-first resolution ladder.

    Wraps an existing :class:`ParallelVolumeRenderer`; every level is
    a real ``render_frame`` on that renderer's world, plan cache, and
    compositing backend.  ``render_ladder`` runs the ladder, up to the
    viewer's camera move if there is one.
    """

    def __init__(
        self,
        renderer: ParallelVolumeRenderer,
        levels: int = 4,
        tracer: Tracer | None = None,
    ):
        if levels < 1:
            raise ConfigError(f"progressive levels must be >= 1, got {levels}")
        self.renderer = renderer
        self.levels = int(levels)
        # ``is None``, not ``or``: an empty Tracer is falsy (len 0) but
        # still the caller's live sink.
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)

    # -- ladder preparation -------------------------------------------

    def prepare(self, handle: DatasetHandle, field: np.ndarray | None = None) -> _LadderPlan:
        """Build the per-level handles and cameras (pyramid included).

        ``field`` is the full-resolution volume the coarse pyramid is
        cut from; when omitted it is read once from ``handle`` (a
        whole-volume read that is *not* part of any level's priced
        I/O — pyramids are preprocessing, exactly like the paper's
        upsampling step).
        """
        from repro.formats.raw import RawVolume
        from repro.pio.reader import RawHandle

        r = self.renderer
        grid = volume_grid(handle)
        scales = ladder_scales(self.levels)
        base_camera = r.camera
        if len(scales) > 1:
            if field is None:
                arrays, _report = collective_read_blocks(
                    handle, [((0, 0, 0), grid)], r.hints, r.stripe
                )
                field = arrays[0]
            pyramid = build_pyramid(np.asarray(field), len(scales))
        handles: list = []
        cameras: list = []
        for i, f in enumerate(scales):
            if f == 1:
                handles.append(handle)
                cameras.append(base_camera)
            else:
                handles.append(RawHandle(RawVolume.write(pyramid[i])))
                cameras.append(base_camera.scaled(1.0 / f))
        return _LadderPlan(scales=scales, handles=handles, cameras=cameras)

    # -- level rendering ----------------------------------------------

    def render_level(self, plan: _LadderPlan, index: int) -> tuple[FrameResult, object]:
        """Render one rung: swap in the level camera, render, restore."""
        r = self.renderer
        saved_camera = r.camera
        r.camera = plan.cameras[index]
        try:
            frame = r.render_frame(plan.handles[index])
        finally:
            r.camera = saved_camera
        return frame, plan.cameras[index]

    def emit_level(self, lf: LevelFrame, first: bool) -> None:
        """Per-level span (plus the one-time TTFP marker) in
        :data:`CAT_PROGRESSIVE`, on the ladder's clock."""
        self.tracer.span(
            0, "level", CAT_PROGRESSIVE, lf.t_start_s, lf.t_done_s,
            level=lf.index, scale=lf.scale, edge=lf.width,
        )
        if first:
            self.tracer.span(
                0, "ttfp", CAT_PROGRESSIVE, lf.t_done_s, lf.t_done_s, edge=lf.width
            )

    # -- the whole ladder ---------------------------------------------

    def render_ladder(
        self, handle: DatasetHandle, field: np.ndarray | None = None,
        cancel_after_s: float | None = None,
    ) -> ProgressiveResult:
        """Render the levels back to back, coarse to fine.

        ``cancel_after_s`` is when, on the ladder's clock, the viewer
        moves the camera (``None``: never); :func:`levels_before_move`
        decides which levels still start, and un-started ones never
        render.
        """
        if cancel_after_s is not None and cancel_after_s < 0:
            raise ConfigError(f"cancel_after_s must be >= 0, got {cancel_after_s!r}")
        plan = self.prepare(handle, field)
        levels: list[LevelFrame] = []

        def level_ends():  # renders each level when the rule asks for its end
            t = 0.0
            for k, f in enumerate(plan.scales):
                frame, camera = self.render_level(plan, k)
                dur = frame.timing.total_s
                lf = LevelFrame(
                    index=k, scale=f, width=camera.width, height=camera.height,
                    t_start_s=t, t_done_s=t + dur, frame=frame,
                )
                self.emit_level(lf, first=(k == 0))
                levels.append(lf)
                t += dur
                yield t

        delivered = levels_before_move(level_ends(), cancel_after_s)
        return ProgressiveResult(
            levels=levels,
            levels_planned=len(plan.scales),
            nodes=self.renderer.world.nprocs,
            cancelled=delivered < len(plan.scales),
            cancel_after_s=cancel_after_s,
            trace=self.tracer,
        )
