"""The end-to-end pipeline: I/O -> render -> composite, one SPMD run.

The functional frame does everything for real at test scale: bytes
come off the (simulated, striped) file through the two-phase collective
read, blocks are ray-cast into partial images, and direct-send moves
real pixels through the simulated torus.  Simulated time comes from
three sources matching the three stages:

* I/O: the exact access plan priced by :class:`repro.model.IOTimeModel`
  (a collective operation — all ranks leave the stage together);
* rendering: each rank's *actual sample count* priced at the calibrated
  per-core sampling rate (so load imbalance is real, not modeled);
* compositing: emerges from the DES network as messages flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.compositing.backends import ComposeRequest, get_backend
from repro.compositing.policy import PAPER_POLICY, CompositorPolicy
from repro.compositing.schedule import CompositeSchedule
from repro.core.plan import FramePlan, FramePlanCache
from repro.core.timing import FrameTiming
from repro.model.constants import DEFAULT_CONSTANTS, ModelConstants
from repro.model.io import IOTimeModel
from repro.obs.tracer import CAT_FAULT, Tracer
from repro.pio.hints import IOHints
from repro.pio.reader import DatasetHandle, IOReport, collective_read_blocks
from repro.render.camera import Camera
from repro.render.decomposition import BlockDecomposition
from repro.sim.parallel import ParallelConfig
from repro.render.raycast import render_block
from repro.render.transfer import TransferFunction
from repro.render.volume import VolumeBlock
from repro.storage.accesslog import AccessLog
from repro.storage.stripedfs import StripeConfig
from repro.utils.errors import ConfigError
from repro.vmpi.runner import MPIWorld


@dataclass
class FrameResult:
    """One rendered frame plus everything measured while making it.

    ``fault`` carries the injector's
    :class:`~repro.fault.metrics.FaultReport` when a non-empty fault
    plan was active; its default keeps fault-free construction — and
    therefore the zero-fault invariant — unchanged.
    """

    image: np.ndarray  # (height, width, 4) premultiplied RGBA
    timing: FrameTiming
    io_report: IOReport
    schedule: CompositeSchedule
    num_compositors: int
    messages: int
    bytes_sent: int
    trace: Tracer | None = None  # the frame's trace when tracing was on
    fault: Any = None
    compositor: str = "directsend"  # which backend composited the frame
    compose_stats: dict | None = None  # backend extras (puzzlepiece drops)


def volume_grid(handle: DatasetHandle) -> tuple[int, int, int]:
    """``handle``'s shape as the renderer's 3-D grid; anything else is refused."""
    grid = tuple(int(s) for s in handle.shape)
    if len(grid) != 3:
        raise ConfigError(f"expected a 3D variable, got shape {handle.shape}")
    return grid  # type: ignore[return-value]


class ParallelVolumeRenderer:
    """The paper's application, configured once and run per time step."""

    def __init__(
        self,
        world: MPIWorld,
        camera: Camera,
        transfer: TransferFunction,
        step: float = 1.0,
        policy: CompositorPolicy = PAPER_POLICY,
        hints: IOHints | None = None,
        stripe: StripeConfig | None = None,
        ghost: int = 1,
        ghost_mode: str = "io",
        constants: ModelConstants = DEFAULT_CONSTANTS,
        tracer: Tracer | None = None,
        fault: Any = None,
        parallel: "ParallelConfig | None" = None,
        compositor: str = "directsend",
        error_budget: float = 0.0,
    ):
        if ghost_mode not in ("io", "exchange"):
            raise ConfigError(
                f"ghost_mode must be 'io' (overlapping reads) or 'exchange' "
                f"(halo messages), got {ghost_mode!r}"
            )
        self.world = world
        self.camera = camera
        self.transfer = transfer
        self.step = step
        self.policy = policy
        self.hints = hints or IOHints()
        self.stripe = stripe
        self.ghost = ghost
        self.ghost_mode = ghost_mode
        self.constants = constants
        self.tracer = tracer
        self.fault = fault  # optional repro.fault.FaultPlan, one per frame
        self.parallel = parallel  # optional repro.sim.ParallelConfig
        self.compositor = compositor
        self.backend = get_backend(compositor)  # fail fast on a typo
        self.error_budget = float(error_budget)
        self.io_model = IOTimeModel(constants, stripe)
        # Camera+decomposition keyed memo of the frame's geometry
        # (footprints, ray/box intersections, tile ownership, message
        # schedule) — time-series rendering reuses it across frames.
        self.plan_cache = FramePlanCache()

    def frame_plan(self, camera: Camera, handle: DatasetHandle) -> FramePlan:
        """The frame plan of ``camera`` over ``handle``'s 3-D grid.

        Decomposition, ghost-read extents, per-rank ray geometry and the
        compositing schedule are all independent of the data, so a
        repeated (camera, grid, config) hits the cache and skips the
        geometry work entirely.
        """
        nprocs = self.world.nprocs
        return self.plan_cache.plan_for(
            camera, volume_grid(handle), nprocs, self.step, self.ghost, self.ghost_mode,
            self.policy.compositors_for(nprocs),
        )

    def render_frame(
        self,
        handle: DatasetHandle,
        log: AccessLog | None = None,
        preread: Any = None,
    ) -> FrameResult:
        """Render one time step end to end; returns image + timing.

        ``preread`` accepts an issued (or still pending)
        :class:`~repro.pio.reader.AsyncBlockRead` for this handle —
        the pipelined time-series renderer's prefetch.  The frame then
        consumes the prefetched bytes instead of reading inline; the
        async path produces the same plan, arrays, and report as the
        inline read, so the frame stays bitwise identical.
        """
        nprocs = self.world.nprocs
        plan = self.frame_plan(self.camera, handle)
        decomposition = plan.decomposition
        ghost_specs = plan.ghost_specs
        schedule = plan.schedule

        # --- Stage 1 (functional part): the collective read.  In 'io'
        # mode blocks are read with their ghost layer (overlapping
        # reads); in 'exchange' mode exact blocks are read and halos
        # move as messages inside the frame program.
        if preread is None:
            arrays, report = collective_read_blocks(
                handle, plan.read_blocks, self.hints, self.stripe, log
            )
        else:
            if preread.handle is not handle:
                raise ConfigError("preread was issued for a different handle")
            want = [(tuple(s), tuple(c)) for s, c in plan.read_blocks]
            if preread.blocks != want:
                raise ConfigError(
                    "preread blocks do not match this frame's plan "
                    "(camera/ghost configuration changed between issue and render)"
                )
            arrays, report = preread.wait()
        io_seconds = self.io_model.price(report, self.world.partition).seconds

        render_rate = (
            self.constants.render.samples_per_second_per_core
            / self.constants.render.load_imbalance
        )
        # The tracer rides through the whole stack (engine, network,
        # rank contexts, the frame program).  Without a user tracer a
        # disabled one still records the three stage spans per rank —
        # FrameTiming below is a derived view over those spans, so the
        # timing path is identical traced or not.
        tracer = self.tracer if self.tracer is not None else Tracer(enabled=False)
        tracer.begin_frame()
        self.world.tracer = tracer

        # --- Fault layer.  The world builds a fresh injector per frame
        # from the plan (its counters and RNG streams are frame-local);
        # the straggler delays are storage-caused, so they stretch the
        # I/O stage per rank.
        io_delays = None
        failover = False
        if self.fault is not None:
            failover = bool(self.fault.node_crashes)
            if self.fault.io_stragglers:
                io_delays = {s.rank: s.delay_s for s in self.fault.io_stragglers}
                if log is not None:
                    for rank, delay in sorted(io_delays.items()):
                        log.record_straggler(rank, delay)

        self.backend.validate(
            nprocs,
            decomposition=decomposition,
            parallel=self.parallel,
            failover=failover,
            error_budget=self.error_budget,
        )
        result = self.world.run(
            _frame_program,
            arrays,
            ghost_specs,
            decomposition,
            self.camera,
            self.transfer,
            self.step,
            schedule,
            io_seconds,
            render_rate,
            self.ghost,
            plan.ray_plans,
            io_delays=io_delays,
            failover=failover,
            compositor=self.compositor,
            error_budget=self.error_budget,
            fault=self.fault,
            parallel=self.parallel,
        )
        # The backend knows how its per-rank return values become the
        # frame (rank 0's gathered canvas, or — under failover, where
        # rank 0 may be dead — host-side tile assembly).
        image, compose_stats = self.backend.finalize(
            result.values, self.camera, failover=failover
        )
        stage_max = tracer.stage_maxima()
        timing = FrameTiming(
            io_s=stage_max.get("io", 0.0),
            render_s=stage_max.get("render", 0.0),
            composite_s=stage_max.get("composite", 0.0),
        )
        if tracer.enabled and log is not None:
            # Bridge the physical access log into the frame's I/O window.
            log.bridge_spans(tracer, 0.0, timing.io_s)
        return FrameResult(
            image=image,
            timing=timing,
            io_report=report,
            schedule=schedule,
            num_compositors=plan.num_compositors,
            messages=result.messages,
            bytes_sent=result.bytes_sent,
            trace=tracer if tracer.enabled else None,
            fault=result.fault if self.fault is not None and not self.fault.empty else None,
            compositor=self.compositor,
            compose_stats=compose_stats,
        )


def _frame_program(
    ctx: Any,
    arrays: list[np.ndarray],
    ghost_specs: list | None,
    decomposition: BlockDecomposition,
    camera: Camera,
    transfer: TransferFunction,
    step: float,
    schedule: CompositeSchedule,
    io_seconds: float,
    render_rate: float,
    ghost: int,
    ray_plans: list | None = None,
    io_delays: dict | None = None,
    failover: bool = False,
    compositor: str = "directsend",
    error_budget: float = 0.0,
):
    """One rank's frame: the three sequential stages of Sec. III-B.

    Stage boundaries are recorded as tracer spans (one ``io``,
    ``render``, ``composite`` span per rank); :class:`FrameTiming` and
    the trace reports both derive from them, so there is exactly one
    timing record per frame.

    The render-time charge and the compositing phase belong to the
    compositing backend (resolved here by name so the sharded parallel
    workers need not pickle backend objects): overlapping schemes like
    the Distributed FrameBuffer interleave the two, so the split is
    theirs to make.  The direct-send backend reproduces the exact
    pre-registry event sequence — one render compute, the fan-out, the
    root gather — keeping default frames bitwise frozen.
    """
    from repro.render.ghost import ghost_exchange

    tr = ctx.tracer
    t0 = ctx.now
    # Stage 1: collective I/O. All ranks enter and leave together; the
    # exact plan was priced outside (the data already sits in `arrays`).
    yield from ctx.barrier()
    yield from ctx.compute(io_seconds)
    if io_delays is not None:
        extra = io_delays.get(ctx.rank, 0.0)
        if extra > 0:
            # A straggling storage server held this rank's read back.
            t_straggle = ctx.now
            yield from ctx.compute(extra)
            if tr is not None and tr.enabled:
                tr.span(ctx.rank, "io.straggler", CAT_FAULT,
                        t_straggle, ctx.now, delay_s=extra)
    if ghost_specs is None:
        # Halo exchange counts toward the I/O stage: it finishes the
        # data distribution the collective read started.
        padded, gl = yield from ghost_exchange(
            ctx, arrays[ctx.rank], decomposition, ghost
        )
    else:
        _rs, _rc, gl = ghost_specs[ctx.rank]
        padded = arrays[ctx.rank]
    t_io = ctx.now
    if tr is not None:
        tr.stage(ctx.rank, "io", t0, t_io)

    # Stage 2: local ray casting — no communication (Sec. III-B2).
    block = decomposition.block(ctx.rank)
    vb = VolumeBlock(
        padded,
        decomposition.grid_shape,  # type: ignore[arg-type]
        block.start,
        block.count,
        gl,
    )
    ray_plan = ray_plans[ctx.rank] if ray_plans is not None else None
    partial = render_block(camera, vb, transfer, step, plan=ray_plan)
    samples = partial.samples if partial is not None else 0

    # Stages 2 (timed part) + 3: the compositing backend charges the
    # priced render seconds and runs its communication pattern (real
    # messages on the torus), recording the render/composite spans.
    backend = get_backend(compositor)
    req = ComposeRequest(
        partial=partial,
        schedule=schedule,
        decomposition=decomposition,
        camera=camera,
        render_seconds=samples / render_rate,
        error_budget=error_budget,
        failover=failover,
    )
    return (yield from backend.compose(ctx, req))
