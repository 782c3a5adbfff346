"""What a cached frame plan costs in memory, and what may not change
inside it.

A frame plan keeps one ``RayPlan`` per block, and a pixel's ray is
planned once for every block it crosses: 4.4 (ray, block) pairs per
pixel at the e2e 64-block frame, 13.5 at 2048 blocks.  The plan holds
what the kernel reads and nothing else — float32 geometry rows with
the vector every ray shares stored once, int32 indices where they
fit — so a pair costs 24 bytes.  Float64 ``(n, 3)`` origins and
directions with int64 indices cost 72; the bound sits between.
"""

import tracemalloc

import numpy as np
import pytest

from _kernels import frozen_build_ray_plan
from repro.core.plan import FramePlanCache, block_world_bounds
from repro.data.synthetic import SupernovaModel
from repro.render.camera import Camera
from repro.render.decomposition import BlockDecomposition
from repro.render.raycast import build_ray_plan, render_block
from repro.render.transfer import TransferFunction
from repro.render.volume import VolumeBlock

PROJECTIONS = ("perspective", "orthographic")
#: Retained bytes per (ray, block) pair a plan may cost.  The kernel's
#: form is 24; one float64 geometry row set (36) or a second int64 index
#: array (32) already fails.
MAX_BYTES_PER_PAIR = 32


def _camera(grid, projection, image):
    cam = Camera.looking_at_volume(
        grid, width=image, height=image, azimuth_deg=33.0, elevation_deg=21.0
    )
    if projection == "orthographic":
        cam = Camera(
            tuple(cam.eye), tuple(cam.center), width=image, height=image, orthographic=True
        )
    return cam


def _arrays(plan):
    return {
        name: getattr(plan, name) for name in ("pix", "origins", "dirs", "k_lo", "k_hi")
    }


@pytest.mark.parametrize("projection", PROJECTIONS)
def test_frame_plan_bytes_per_pair(projection):
    # The e2e frame: 64^3 in 64 ghosted blocks, 256^2, m = n.
    grid = (64, 64, 64)
    cam = _camera(grid, projection, 256)
    tracemalloc.start()
    try:
        plan = FramePlanCache().plan_for(cam, grid, 64, 1.0, 1, "io", 64)
        retained, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    pairs = sum(p.num_rays for p in plan.ray_plans if p is not None)
    assert pairs > 4 * 256 * 256  # every pixel's ray, planned per block crossed
    assert retained / pairs < MAX_BYTES_PER_PAIR


@pytest.mark.parametrize("projection", PROJECTIONS)
def test_render_block_leaves_the_plan_unchanged(projection):
    # The cache hands one plan to every frame of a campaign.
    grid = (24, 24, 24)
    field = SupernovaModel(grid, seed=7, time=0.5).field("vx")
    cam = _camera(grid, projection, 64)
    tf = TransferFunction.supernova(-1.0, 1.0)
    for b in BlockDecomposition(grid, 8).blocks():
        rs, rc, ghost_lo = b.ghost_read(grid, 1)
        data = field[rs[0]:rs[0] + rc[0], rs[1]:rs[1] + rc[1], rs[2]:rs[2] + rc[2]]
        block = VolumeBlock(data, grid, b.start, b.count, ghost_lo)
        plan = build_ray_plan(cam, *block_world_bounds(b, grid), 0.5)
        before = {name: (a.dtype, a.shape, a.tobytes()) for name, a in _arrays(plan).items()}
        assert render_block(cam, block, tf, 0.5, plan=plan) is not None
        after = {name: (a.dtype, a.shape, a.tobytes()) for name, a in _arrays(plan).items()}
        assert after == before


@pytest.mark.parametrize("projection", PROJECTIONS)
def test_indices_past_int32_stay_int64(projection):
    # A step this small puts the sample indices past 2**31.
    grid = (16, 16, 16)
    cam = _camera(grid, projection, 24)
    lo, hi = np.zeros(3), np.full(3, 15.0)
    live = build_ray_plan(cam, lo, hi, 1e-8)
    frozen = frozen_build_ray_plan(cam, lo, hi, 1e-8)
    assert frozen.k_min > 2**31
    for name in ("k_lo", "k_hi"):
        assert getattr(live, name).dtype == np.int64
        assert np.array_equal(getattr(live, name), getattr(frozen, name))
    assert np.array_equal(live.pix, frozen.pix)
    assert (live.k_min, live.k_max) == (frozen.k_min, frozen.k_max)
