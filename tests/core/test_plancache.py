"""Frame-plan cache: hits must render exactly what a cold build would."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compositing.schedule import (
    clear_schedule_cache,
    schedule_cache_info,
    schedule_from_geometry,
)
from repro.core import ParallelVolumeRenderer
from repro.core.plan import FramePlanCache, block_world_bounds
from repro.data import SupernovaModel, write_vh1_netcdf
from repro.pio import IOHints, NetCDFHandle
from repro.render.camera import Camera
from repro.render.decomposition import BlockDecomposition
from repro.render.transfer import TransferFunction
from repro.render.volume import VolumeBlock
from repro.vmpi import MPIWorld

GRID = (16, 16, 16)


@pytest.fixture(scope="module")
def model():
    return SupernovaModel(GRID, seed=3)


@pytest.fixture(scope="module")
def handle(model):
    return NetCDFHandle(write_vh1_netcdf(model), "vx")


def make_pvr(cam, tf, nprocs=8):
    return ParallelVolumeRenderer(
        MPIWorld.for_cores(nprocs), cam, tf, step=0.8,
        hints=IOHints(cb_buffer_size=4096, cb_nodes=2),
    )


class TestRendererPlanCache:
    def test_cache_hit_renders_identical_image(self, model, handle):
        cam = Camera.looking_at_volume(GRID, width=40, height=36)
        tf = TransferFunction.supernova(*model.value_range("vx"))
        pvr = make_pvr(cam, tf)
        cold = pvr.render_frame(handle)
        assert (pvr.plan_cache.misses, pvr.plan_cache.hits) == (1, 0)
        warm = pvr.render_frame(handle)
        assert (pvr.plan_cache.misses, pvr.plan_cache.hits) == (1, 1)
        # Geometry is cached, pixels are not: the warm frame must be
        # *bitwise* the cold frame, not merely close.
        assert np.array_equal(cold.image, warm.image)
        assert warm.timing.render_s == cold.timing.render_s

    def test_hit_matches_fresh_renderer(self, model, handle):
        cam = Camera.looking_at_volume(GRID, width=40, height=36, azimuth_deg=50.0)
        tf = TransferFunction.supernova(*model.value_range("vx"))
        pvr = make_pvr(cam, tf)
        pvr.render_frame(handle)
        warm = pvr.render_frame(handle)  # served from the plan cache
        fresh = make_pvr(cam, tf).render_frame(handle)  # cold cache
        assert np.array_equal(warm.image, fresh.image)

    def test_different_camera_misses(self, model, handle):
        tf = TransferFunction.supernova(*model.value_range("vx"))
        cam_a = Camera.looking_at_volume(GRID, width=32, height=32)
        pvr = make_pvr(cam_a, tf)
        pvr.render_frame(handle)
        pvr.camera = Camera.looking_at_volume(GRID, width=32, height=32, azimuth_deg=90.0)
        pvr.render_frame(handle)
        assert pvr.plan_cache.misses == 2
        assert len(pvr.plan_cache) == 2


class TestFramePlanCacheUnit:
    def test_hit_returns_same_object(self):
        cache = FramePlanCache()
        cam = Camera.looking_at_volume(GRID, width=24, height=24)
        a = cache.plan_for(cam, GRID, 8, 0.8, 1, "io", 4)
        b = cache.plan_for(cam, GRID, 8, 0.8, 1, "io", 4)
        assert a is b
        assert (cache.misses, cache.hits) == (1, 1)

    def test_eviction_bound(self):
        cache = FramePlanCache(max_entries=2)
        tfms = [
            Camera.looking_at_volume(GRID, width=16, height=16, azimuth_deg=float(a))
            for a in (0.0, 30.0, 60.0)
        ]
        for cam in tfms:
            cache.plan_for(cam, GRID, 4, 1.0, 1, "io", 2)
        assert len(cache) == 2
        # The oldest entry was evicted; asking again rebuilds it.
        cache.plan_for(tfms[0], GRID, 4, 1.0, 1, "io", 2)
        assert cache.misses == 4

    def test_eviction_is_lru_not_fifo(self):
        # Regression: hits used to leave recency untouched, so the
        # eviction order was insertion (FIFO) and an orbit campaign one
        # camera larger than the cache thrashed every revolution.
        cache = FramePlanCache(max_entries=2)
        cams = [
            Camera.looking_at_volume(GRID, width=16, height=16, azimuth_deg=float(a))
            for a in (0.0, 30.0, 60.0)
        ]
        cache.plan_for(cams[0], GRID, 4, 1.0, 1, "io", 2)
        cache.plan_for(cams[1], GRID, 4, 1.0, 1, "io", 2)
        cache.plan_for(cams[0], GRID, 4, 1.0, 1, "io", 2)  # refresh cams[0]
        cache.plan_for(cams[2], GRID, 4, 1.0, 1, "io", 2)  # evicts cams[1]
        misses = cache.misses
        cache.plan_for(cams[0], GRID, 4, 1.0, 1, "io", 2)  # must still hit
        assert cache.misses == misses
        cache.plan_for(cams[1], GRID, 4, 1.0, 1, "io", 2)  # was evicted
        assert cache.misses == misses + 1

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=0, max_value=5_000),
        st.sampled_from([2, 4, 7, 8, 12]),
    )
    def test_block_world_bounds_match_volume_block(self, seed, nprocs):
        # Ray plans are built from bare Block3D geometry before any
        # data exists; the bounds must agree with what VolumeBlock
        # derives once the data arrives, or cached plans would sample
        # the wrong world region.
        rng = np.random.default_rng(seed)
        # Dims >= 12 so even a prime nprocs (one long block-grid axis)
        # fits along any axis.
        grid = tuple(int(rng.integers(12, 24)) for _ in range(3))
        dec = BlockDecomposition(grid, nprocs)
        for b in dec.blocks():
            lo, hi = block_world_bounds(b, grid)
            rs, rc, gl = b.ghost_read(grid, ghost=1)
            sub = np.zeros(rc, np.float32)
            vb = VolumeBlock(sub, grid, b.start, b.count, gl)
            assert np.array_equal(lo, vb.world_lo)
            assert np.array_equal(hi, vb.world_hi)


class TestScheduleCache:
    def test_memoized_and_bypassable(self):
        clear_schedule_cache()
        cam = Camera.looking_at_volume(GRID, width=24, height=24)
        dec = BlockDecomposition(GRID, 8)
        a = schedule_from_geometry(dec, cam, 4)
        b = schedule_from_geometry(dec, cam, 4)
        assert a is b
        info = schedule_cache_info()
        assert info["hits"] >= 1 and info["size"] >= 1
        c = schedule_from_geometry(dec, cam, 4, cache=False)
        assert c is not a
        # The cold build must agree with the cached one.
        assert c.total_messages == a.total_messages
        assert c.tiles.tiles() == a.tiles.tiles()
        assert c.messages == a.messages

    def test_schedule_memo_evicts_lru_not_fifo(self):
        # Same regression as FramePlanCache: a hit must refresh
        # recency, or >max-entry orbits thrash every revolution.
        import repro.compositing.schedule as sched

        clear_schedule_cache()
        old_max, sched._SCHEDULE_CACHE.max_entries = sched._SCHEDULE_CACHE.max_entries, 2
        try:
            dec = BlockDecomposition(GRID, 8)
            cams = [
                Camera.looking_at_volume(GRID, width=24, height=24, azimuth_deg=float(a))
                for a in (0.0, 30.0, 60.0)
            ]
            schedule_from_geometry(dec, cams[0], 4)
            schedule_from_geometry(dec, cams[1], 4)
            schedule_from_geometry(dec, cams[0], 4)  # refresh cams[0]
            schedule_from_geometry(dec, cams[2], 4)  # evicts cams[1]
            misses = schedule_cache_info()["misses"]
            schedule_from_geometry(dec, cams[0], 4)  # must still hit
            assert schedule_cache_info()["misses"] == misses
            schedule_from_geometry(dec, cams[1], 4)  # was evicted
            assert schedule_cache_info()["misses"] == misses + 1
        finally:
            sched._SCHEDULE_CACHE.max_entries = old_max
            clear_schedule_cache()
