"""How the farm turns an admitted request into a service time.

Two backends, the same two modes every experiment in this repository
runs in (DESIGN.md §2):

* :class:`ModelBackend` — **performance mode**.  Requests are priced by
  the calibrated analytic :class:`repro.model.FrameModel` at paper
  scale (1120³–4480³ data on thousands of cores).  The plan tier here
  is a memo of priced estimates keyed on ``(dataset, cores, io_mode)``:
  the analytic model's stage costs are camera-orbit invariant (sample
  counts and schedules shift between ranks, not in total), so every
  session at the same partition size shares one priced plan.

* :class:`ExecuteBackend` — **functional mode**.  Requests actually
  render through :class:`repro.core.ParallelVolumeRenderer` at small
  dims: real bytes, real pixels, and a *shared* renderer whose
  :class:`repro.core.FramePlanCache` becomes the service-wide plan
  tier — the second session looking at the same camera/step reuses all
  frame geometry.  The returned service time is the frame's own
  simulated :class:`FrameTiming` total, so farm latencies and frame
  pipelines share one clock semantics.

Both backends memoize per :attr:`frame_key
<repro.farm.request.FrameRequest.frame_key>` (plus partition size), so
duplicate in-flight requests are priced/rendered once; the memo also
keeps backfill exact, because a job's service time is known the moment
it is admitted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Protocol

from repro.farm.request import FrameRequest
from repro.model.constants import DEFAULT_CONSTANTS
from repro.model.pipeline import DATASETS, FrameModel
from repro.utils.errors import ConfigError


@dataclass
class CampaignPayload:
    """What a pipelined campaign job delivers: all frames + overlap books.

    Both backends return one of these for ``frames > 1`` requests, so
    :meth:`FarmResult.campaign_stats
    <repro.farm.result.FarmResult.campaign_stats>` can reconcile every
    campaign's frame count and overlap saving against the request
    ledger regardless of mode.  ``detail`` carries the mode-specific
    goods: the rendered images (execute) or the per-frame estimate
    (model).
    """

    frames: int
    prefetch_depth: int
    sequential_s: float  # no-overlap campaign time (stage sums)
    makespan_s: float  # pipelined campaign wall clock
    detail: Any = field(default=None, repr=False)

    @property
    def overlap_saved_s(self) -> float:
        return self.sequential_s - self.makespan_s


@dataclass
class ProgressivePayload:
    """What a progressive ladder job delivers: every level + its clock.

    ``level_end_s`` is cumulative simulated seconds from serve start to
    each level's delivery, coarse to fine — the farm dispatcher turns
    these into per-level publish events, and a camera move truncates
    the ladder at the first boundary after it.  ``sequential_full_s``
    is what a direct full-resolution render of the same frame would
    have taken, so ``ttfp_s`` vs it is the headline speedup.  ``detail``
    carries mode-specific goods (the execute mode's
    :class:`~repro.progressive.renderer.ProgressiveResult`).
    """

    levels: int
    edges: tuple[int, ...]  # per-level image edge, coarse to fine
    level_end_s: tuple[float, ...]  # cumulative delivery times
    sequential_full_s: float  # direct full-res render of the same frame
    detail: Any = field(default=None, repr=False)

    @property
    def ttfp_s(self) -> float:
        """Serve-relative time to first pixel (the coarsest level)."""
        return self.level_end_s[0]

    @property
    def total_s(self) -> float:
        return self.level_end_s[-1]


class ServiceBackend(Protocol):  # pragma: no cover - typing aid
    """What the dispatcher needs: a deterministic (seconds, payload)."""

    name: str

    def render(self, request: FrameRequest, cores: int) -> tuple[float, Any]: ...

    @property
    def plan_hits(self) -> int: ...

    @property
    def plan_misses(self) -> int: ...


class ModelBackend:
    """Price requests with the analytic frame model (paper scale)."""

    name = "model"

    def __init__(self, constants: Any = None):
        self._constants = constants or DEFAULT_CONSTANTS
        self._models: dict[str, Any] = {}
        self._estimates: dict[tuple, Any] = {}
        self.plan_hits = 0
        self.plan_misses = 0

    def _estimate(self, dataset: str, cores: int, io_mode: str, count: bool = True):
        """The memoized priced estimate; ``count=False`` skips the
        plan-tier hit/miss books (internal probes, e.g. the RAW
        estimate a progressive ladder prices coarse levels from)."""
        key = (dataset, int(cores), io_mode)
        est = self._estimates.get(key)
        if est is not None:
            if count:
                self.plan_hits += 1
            return est
        if count:
            self.plan_misses += 1
        model = self._models.get(dataset)
        if model is None:
            model = self._models[dataset] = FrameModel(DATASETS[dataset], self._constants)
        est = model.estimate(cores, io_mode=io_mode)
        self._estimates[key] = est
        return est

    def render(self, request: FrameRequest, cores: int) -> tuple[float, Any]:
        if request.dataset not in DATASETS:
            raise ConfigError(
                f"model backend knows datasets {sorted(DATASETS)}, "
                f"got {request.dataset!r}"
            )
        est = self._estimate(request.dataset, cores, request.io_mode)
        if request.is_progressive:
            # Progressive ladder: coarse levels render stride-f pyramid
            # copies, so their I/O and render shrink with f³ (voxels)
            # and compositing with f² (pixels).  The coarse pyramid is
            # raw-layout preprocessing regardless of the full frame's
            # io_mode — a netCDF record layout's density penalty applies
            # to the full-resolution read, not to the derived copies.
            from repro.progressive.ladder import ladder_scales, level_edge

            raw = (
                est
                if request.io_mode == "raw"
                else self._estimate(request.dataset, cores, "raw", count=False)
            )
            full_edge = DATASETS[request.dataset].image
            t = 0.0
            ends: list[float] = []
            edges: list[int] = []
            for f in ladder_scales(request.levels):
                if f == 1:
                    t += est.total_s
                else:
                    t += (
                        raw.io.seconds / f**3
                        + est.render.seconds / f**3
                        + est.composite.seconds / f**2
                    )
                ends.append(t)
                edges.append(level_edge(full_edge, f))
            payload = ProgressivePayload(
                levels=request.levels,
                edges=tuple(edges),
                level_end_s=tuple(ends),
                sequential_full_s=est.total_s,
                detail=est,
            )
            return payload.total_s, payload
        if request.frames > 1:
            # Campaign job: the analytic stage costs are camera-orbit
            # invariant, so every frame shares one estimate; the
            # pipelined makespan comes from the same schedule model the
            # core campaign driver uses.
            from repro.core.timeseries import simulate_pipeline

            io = est.io.seconds
            rc = est.render.seconds + est.composite.seconds
            timeline = simulate_pipeline(
                [io] * request.frames, [rc] * request.frames,
                request.prefetch_depth,
            )
            payload = CampaignPayload(
                frames=request.frames,
                prefetch_depth=request.prefetch_depth,
                sequential_s=request.frames * (io + rc),
                makespan_s=timeline.makespan_s,
                detail=est,
            )
            return payload.makespan_s, payload
        return est.total_s, est


class ExecuteBackend:
    """Render requests for real at small dims through ``repro.core``.

    One renderer (and hence one :class:`FramePlanCache`) serves every
    session; per-step synthetic supernova time steps are generated
    lazily and memoized.  ``cores`` requested by clients is honored in
    spirit — the functional world runs at ``world_cores`` ranks, the
    scale the pixel-exact oracles cover — so this backend validates
    *service semantics* (caching, queueing, span accounting) rather
    than paper-scale timing magnitudes.
    """

    name = "execute"

    def __init__(
        self,
        grid: int = 12,
        world_cores: int = 4,
        image: int = 24,
        step: float = 0.8,
        seed: int = 1530,
        parallel: Any = None,
        compositor: str = "directsend",
        error_budget: float = 0.0,
    ):
        self.grid = (int(grid),) * 3
        self.world_cores = int(world_cores)
        self.image = int(image)
        self.step = float(step)
        self.seed = int(seed)
        self.parallel = parallel  # optional repro.sim.ParallelConfig
        self.compositor = str(compositor)
        self.error_budget = float(error_budget)
        self._renderer = None
        self._handles: dict[tuple, Any] = {}
        self._transfers: dict[tuple, Any] = {}
        self._frames: dict[tuple, tuple[float, Any]] = {}

    # -- lazy functional stack ----------------------------------------

    def _handle(self, request: FrameRequest):
        from repro.data import SupernovaModel, extract_variable_raw
        from repro.pio import RawHandle

        key = (request.dataset, request.step, request.variable)
        if key not in self._handles:
            model = SupernovaModel(
                self.grid,
                seed=self.seed,
                time=0.2 + 0.04 * request.step,
            )
            self._handles[key] = (
                RawHandle(extract_variable_raw(model, request.variable)),
                model.value_range(request.variable),
                model.field(request.variable),
            )
        return self._handles[key]

    def _transfer(self, request: FrameRequest, value_range: tuple[float, float]):
        from repro.render import TransferFunction

        key = (request.dataset, request.step, request.variable)
        if key not in self._transfers:
            self._transfers[key] = TransferFunction.supernova(*value_range)
        return self._transfers[key]

    def _get_renderer(self, camera, transfer):
        from repro.core import ParallelVolumeRenderer
        from repro.vmpi import MPIWorld

        if self._renderer is None:
            self._renderer = ParallelVolumeRenderer(
                MPIWorld.for_cores(self.world_cores), camera, transfer,
                step=self.step, parallel=self.parallel,
                compositor=self.compositor, error_budget=self.error_budget,
            )
        self._renderer.camera = camera
        self._renderer.transfer = transfer
        return self._renderer

    # -- ServiceBackend -----------------------------------------------

    def render(self, request: FrameRequest, cores: int) -> tuple[float, Any]:
        key = request.frame_key
        if key not in self._frames:
            self._frames[key] = self._render(request)
        return self._frames[key]

    def _render(self, request: FrameRequest) -> tuple[float, Any]:
        from repro.render import Camera

        handle, value_range, volume = self._handle(request)
        camera = Camera.looking_at_volume(
            self.grid,
            width=self.image,
            height=self.image,
            azimuth_deg=request.azimuth_deg,
            elevation_deg=request.elevation_deg,
        )
        renderer = self._get_renderer(camera, self._transfer(request, value_range))
        if request.is_progressive:
            # Progressive ladder: every level is a real frame through
            # the shared renderer (one FramePlanCache across the whole
            # service), final level bitwise identical to a direct
            # full-resolution render of this frame_key sans ladder.
            from repro.progressive import ProgressiveRenderer

            ladder = ProgressiveRenderer(renderer, levels=request.levels).render_ladder(
                handle, field=volume
            )
            payload = ProgressivePayload(
                levels=request.levels,
                edges=tuple(lf.width for lf in ladder.levels),
                level_end_s=tuple(lf.t_done_s for lf in ladder.levels),
                sequential_full_s=ladder.final.timing.total_s,
                detail=ladder,
            )
            return payload.total_s, payload
        if request.frames > 1:
            # Campaign job: the whole orbit animation renders through
            # the pipelined driver on the *shared* renderer, so the
            # service-wide FramePlanCache warms across frames and the
            # service time is the overlapped campaign makespan, not the
            # per-frame sum.
            from repro.core.timeseries import PipelinedTimeSeriesRenderer

            def orbit_camera(i: int) -> Any:
                return Camera.looking_at_volume(
                    self.grid,
                    width=self.image,
                    height=self.image,
                    azimuth_deg=(request.azimuth_deg + i * request.orbit_deg) % 360.0,
                    elevation_deg=request.elevation_deg,
                )

            campaign = PipelinedTimeSeriesRenderer(
                renderer, prefetch_depth=request.prefetch_depth
            ).render([handle] * request.frames, camera_factory=orbit_camera)
            payload = CampaignPayload(
                frames=request.frames,
                prefetch_depth=request.prefetch_depth,
                sequential_s=campaign.sequential_s,
                makespan_s=campaign.makespan_s,
                detail=campaign.images,
            )
            return payload.makespan_s, payload
        result = renderer.render_frame(handle)
        return result.timing.total_s, result.image

    @property
    def plan_hits(self) -> int:
        return self._renderer.plan_cache.hits if self._renderer is not None else 0

    @property
    def plan_misses(self) -> int:
        return self._renderer.plan_cache.misses if self._renderer is not None else 0


#: The scenario ``mode`` names; a scenario's ``backend_options`` are
#: checked against the chosen constructor's annotations.
BACKENDS = {"model": ModelBackend, "execute": ExecuteBackend}


def backend_for(mode: str, **kwargs: Any) -> ServiceBackend:
    """Factory used by scenarios: ``model`` or ``execute``."""
    if mode not in BACKENDS:
        raise ConfigError(f"unknown farm backend {mode!r}; choose 'model' or 'execute'")
    return BACKENDS[mode](**kwargs)
