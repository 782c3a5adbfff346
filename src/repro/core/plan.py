"""Frame-plan caching: everything about a frame that does not depend
on the data.

A frame's *plan* — block decomposition, ghost-read extents, per-rank
ray geometry (footprints, ray/box intersections, sample-index bounds),
tile ownership, and the direct-send message schedule — is a pure
function of (camera, grid, process count, step, ghost policy,
compositor count).  Time-series campaigns (:mod:`repro.core.timeseries`)
render hundreds of frames against the same configuration, so the
pipeline memoizes the whole bundle here instead of re-deriving it
every time step.

Correctness invariant: every cached array is geometry, never pixels.
The ray plans hold sample *positions* (globally aligned indices), and
the renderer reads fresh data through them each frame, so a cache hit
renders bitwise the same image a cold build would.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compositing.schedule import CompositeSchedule, schedule_from_geometry
from repro.render.camera import Camera
from repro.render.decomposition import BlockDecomposition, block_world_bounds
from repro.render.raycast import RayPlan, build_ray_plan
from repro.utils.lru import LRU


class PlanKey:
    """Frame-configuration identity with a precomputed hash digest.

    A plan key hashes ~30 floats (the camera frame); computing that
    digest once at construction makes every warm cache lookup an O(1)
    table probe, with the full tuple compared only on digest collision.
    """

    __slots__ = ("parts", "_hash")

    def __init__(self, parts: tuple):
        self.parts = parts
        self._hash = hash(parts)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PlanKey):
            return self._hash == other._hash and self.parts == other.parts
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PlanKey({self.parts!r})"


@dataclass
class FramePlan:
    """The data-independent part of one frame, ready to re-use."""

    key: tuple
    decomposition: BlockDecomposition
    read_blocks: list[tuple[tuple[int, int, int], tuple[int, int, int]]]
    ghost_specs: list | None  # per-rank (read_start, read_count, ghost_lo)
    schedule: CompositeSchedule
    ray_plans: list[RayPlan | None]  # per rank; None = block off screen
    num_compositors: int


class FramePlanCache(LRU):
    """Bounded LRU of :class:`FramePlan` keyed on frame configuration."""

    def __init__(self, max_entries: int = 8):
        super().__init__(max_entries)

    def plan_for(
        self,
        camera: Camera,
        grid: tuple[int, int, int],
        nprocs: int,
        step: float,
        ghost: int,
        ghost_mode: str,
        num_compositors: int,
    ) -> FramePlan:
        key = PlanKey((
            camera.plan_key(),
            tuple(grid),
            int(nprocs),
            float(step),
            int(ghost),
            ghost_mode,
            int(num_compositors),
        ))
        plan = self.get(key)
        if plan is None:
            plan = self._build(key, camera, grid, nprocs, step, ghost, ghost_mode, num_compositors)
            self.put(key, plan)
        return plan

    def _build(
        self,
        key: tuple,
        camera: Camera,
        grid: tuple[int, int, int],
        nprocs: int,
        step: float,
        ghost: int,
        ghost_mode: str,
        num_compositors: int,
    ) -> FramePlan:
        decomposition = BlockDecomposition(grid, nprocs)
        blocks = decomposition.blocks()
        if ghost_mode == "io":
            ghost_specs = [b.ghost_read(grid, ghost) for b in blocks]
            read_blocks = [(rs, rc) for rs, rc, _gl in ghost_specs]
        else:
            ghost_specs = None
            read_blocks = [(b.start, b.count) for b in blocks]
        schedule = schedule_from_geometry(decomposition, camera, num_compositors)
        # Footprints overlap several times over: generate each pixel's
        # ray once for the frame and let every block slice it.
        framed = camera.with_frame_rays()
        ray_plans = [
            build_ray_plan(framed, *block_world_bounds(b, grid), step) for b in blocks
        ]
        return FramePlan(
            key=key,
            decomposition=decomposition,
            read_blocks=read_blocks,
            ghost_specs=ghost_specs,
            schedule=schedule,
            ray_plans=ray_plans,
            num_compositors=num_compositors,
        )
