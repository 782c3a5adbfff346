"""Ray casting: the block-parallel == serial invariant and basics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.render.camera import Camera
from repro.render.decomposition import BlockDecomposition
from repro.render.image import blank_image, composite_over
from repro.render.raycast import (
    build_ray_plan,
    ray_box_intersect,
    render_block,
    render_volume_serial,
)
from repro.render.transfer import TransferFunction
from repro.render.volume import VolumeBlock
from repro.utils.errors import ConfigError

TOL = 5e-3  # early-termination threshold dominates the error budget


def render_parallel(data, cam, tf, nblocks, step):
    grid = data.shape
    dec = BlockDecomposition(grid, nblocks)
    partials = []
    for b in dec.blocks():
        rs, rc, gl = b.ghost_read(grid, ghost=1)
        sub = data[rs[0] : rs[0] + rc[0], rs[1] : rs[1] + rc[1], rs[2] : rs[2] + rc[2]]
        vb = VolumeBlock(sub, grid, b.start, b.count, gl)
        p = render_block(cam, vb, tf, step=step)
        if p is not None:
            partials.append(p)
    return composite_over(blank_image(cam.width, cam.height), partials)


class TestRayBoxIntersect:
    def test_hit_through_center(self):
        o = np.array([[0.0, 0.0, -5.0]])
        d = np.array([[0.0, 0.0, 1.0]])
        t0, t1 = ray_box_intersect(o, d, np.array([-1.0, -1, -1]), np.array([1.0, 1, 1]))
        assert t0[0] == pytest.approx(4.0)
        assert t1[0] == pytest.approx(6.0)

    def test_miss(self):
        o = np.array([[10.0, 10.0, -5.0]])
        d = np.array([[0.0, 0.0, 1.0]])
        t0, t1 = ray_box_intersect(o, d, np.array([-1.0, -1, -1]), np.array([1.0, 1, 1]))
        assert t1[0] <= t0[0]

    def test_origin_inside(self):
        o = np.array([[0.0, 0.0, 0.0]])
        d = np.array([[1.0, 0.0, 0.0]])
        t0, t1 = ray_box_intersect(o, d, np.array([-1.0, -1, -1]), np.array([1.0, 1, 1]))
        assert t0[0] == 0.0
        assert t1[0] == pytest.approx(1.0)

    def test_axis_parallel_outside_slab_misses(self):
        o = np.array([[0.0, 5.0, -5.0]])  # y outside the box, dy == 0
        d = np.array([[0.0, 0.0, 1.0]])
        t0, t1 = ray_box_intersect(o, d, np.array([-1.0, -1, -1]), np.array([1.0, 1, 1]))
        assert t1[0] <= t0[0]


class TestRenderBlock:
    def test_empty_volume_renders_nothing(self, small_camera, gray_tf):
        vb = VolumeBlock.whole(np.zeros((8, 8, 8), np.float32))
        assert render_block(small_camera, vb, gray_tf) is None

    def test_opaque_volume_saturates(self, small_camera):
        tf = TransferFunction.grayscale_ramp()
        vb = VolumeBlock.whole(np.ones((16, 16, 16), np.float32))
        p = render_block(small_camera, vb, tf, step=0.5)
        assert p is not None
        assert p.rgba[..., 3].max() > 0.95
        assert p.samples > 0

    def test_bad_step_rejected(self, small_camera, gray_tf):
        vb = VolumeBlock.whole(np.ones((4, 4, 4), np.float32))
        with pytest.raises(ConfigError):
            render_block(small_camera, vb, gray_tf, step=0)

    @pytest.mark.parametrize("step", [float("nan"), float("inf")])
    def test_non_finite_step_rejected(self, small_camera, gray_tf, step):
        # NaN passed ``step <= 0`` and came back as a blank frame (None)
        # after an "invalid value encountered in cast" warning.
        vb = VolumeBlock.whole(np.ones((4, 4, 4), np.float32))
        with pytest.raises(ConfigError, match="step"):
            render_block(small_camera, vb, gray_tf, step=step)
        with pytest.raises(ConfigError, match="step"):
            build_ray_plan(small_camera, vb.world_lo, vb.world_hi, step)

    @pytest.mark.parametrize("et", [0.0, -1.0, 1.5, float("nan"), float("inf")])
    def test_bad_early_termination_rejected(self, small_camera, gray_tf, et):
        # 0, negatives and NaN made every ray "finished" before its
        # first sample: a silent None instead of an image.
        vb = VolumeBlock.whole(np.ones((4, 4, 4), np.float32))
        with pytest.raises(ConfigError, match="early_termination"):
            render_block(small_camera, vb, gray_tf, early_termination=et)

    def test_alpha_in_unit_range(self, small_camera, gray_tf, rng):
        vb = VolumeBlock.whole(rng.random((12, 12, 12)).astype(np.float32))
        p = render_block(small_camera, vb, gray_tf, step=0.5)
        assert p is not None
        assert np.all(p.rgba[..., 3] >= 0) and np.all(p.rgba[..., 3] <= 1 + 1e-6)
        # Premultiplied: colour never exceeds alpha (gray ramp).
        assert np.all(p.rgba[..., :3] <= p.rgba[..., 3:4] + 1e-5)


class TestParallelEqualsSerial:
    @pytest.mark.parametrize("nblocks", (2, 3, 4, 8, 12))
    def test_block_counts(self, nblocks, rng):
        data = rng.random((16, 16, 16)).astype(np.float32)
        cam = Camera.looking_at_volume(data.shape, width=40, height=36)
        tf = TransferFunction.grayscale_ramp()
        ref = render_volume_serial(cam, data, tf, step=0.6)
        img = render_parallel(data, cam, tf, nblocks, step=0.6)
        assert np.abs(img - ref).max() < TOL

    @settings(max_examples=8, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([2, 4, 8]),
        st.floats(min_value=0.4, max_value=1.5),
        st.floats(min_value=-80, max_value=80),
        st.floats(min_value=-40, max_value=60),
    )
    def test_random_views_and_steps(self, seed, nblocks, step, azimuth, elevation):
        rng = np.random.default_rng(seed)
        data = rng.random((12, 12, 12)).astype(np.float32)
        cam = Camera.looking_at_volume(
            data.shape, width=32, height=32, azimuth_deg=azimuth, elevation_deg=elevation
        )
        tf = TransferFunction.grayscale_ramp()
        ref = render_volume_serial(cam, data, tf, step=step)
        img = render_parallel(data, cam, tf, nblocks, step=step)
        assert np.abs(img - ref).max() < TOL

    def test_uneven_bricks_recorded_view(self):
        """The view Hypothesis once drew: 12 nodes cut 6 + 6 span world
        [0, 6] and [6, 11], the eye sits between the centres' bisector
        (5.75) and the cut (6.0), and the centre-distance key ordered
        the two partials back to front — pixel (30, 17) was off by 0.203."""
        data = np.random.default_rng(0).random((12, 12, 12)).astype(np.float32)
        cam = Camera.looking_at_volume(
            data.shape, width=32, height=32, azimuth_deg=1.75, elevation_deg=55.0
        )
        tf = TransferFunction.grayscale_ramp()
        ref = render_volume_serial(cam, data, tf, step=1.0)
        img = render_parallel(data, cam, tf, 2, step=1.0)
        assert np.abs(img - ref).max() < TOL

    def test_supernova_transfer_function(self, supernova):
        data = supernova.field("vx")
        cam = Camera.looking_at_volume(data.shape, width=40, height=40)
        tf = TransferFunction.supernova(*supernova.value_range("vx"))
        ref = render_volume_serial(cam, data, tf, step=0.7)
        img = render_parallel(data, cam, tf, 8, step=0.7)
        assert np.abs(img - ref).max() < TOL

    def test_no_early_termination_is_tighter(self, rng):
        data = rng.random((12, 12, 12)).astype(np.float32)
        cam = Camera.looking_at_volume(data.shape, width=24, height=24)
        tf = TransferFunction.grayscale_ramp()
        ref = render_volume_serial(cam, data, tf, step=0.5, early_termination=1.0)
        dec = BlockDecomposition(data.shape, 8)
        partials = []
        for b in dec.blocks():
            rs, rc, gl = b.ghost_read(data.shape, ghost=1)
            sub = data[rs[0] : rs[0] + rc[0], rs[1] : rs[1] + rc[1], rs[2] : rs[2] + rc[2]]
            p = render_block(
                cam, VolumeBlock(sub, data.shape, b.start, b.count, gl), tf, 0.5, 1.0
            )
            if p is not None:
                partials.append(p)
        img = composite_over(blank_image(24, 24), partials)
        assert np.abs(img - ref).max() < 2e-5
