"""Camera: rays, projection, footprints."""

import numpy as np
import pytest

from repro.render.camera import Camera
from repro.utils.errors import ConfigError


@pytest.fixture
def cam():
    return Camera(eye=(0, 0, -10), center=(0, 0, 0), width=100, height=80, fov_deg=40)


class TestRays:
    def test_directions_unit_length(self, cam):
        px, py = np.meshgrid(np.arange(100), np.arange(80))
        _o, d = cam.rays_for_pixels(px, py)
        assert np.allclose(np.linalg.norm(d, axis=-1), 1.0)

    def test_center_pixel_points_forward(self, cam):
        _o, d = cam.rays_for_pixels(np.array([49]), np.array([39]))
        assert np.dot(d[0], cam.forward) > 0.99

    def test_origins_at_eye(self, cam):
        o, _d = cam.rays_for_pixels(np.array([0]), np.array([0]))
        assert np.allclose(o[0], cam.eye)

    def test_corner_rays_diverge(self, cam):
        _o, d = cam.rays_for_pixels(np.array([0, 99]), np.array([0, 79]))
        assert np.dot(d[0], d[1]) < 1.0


class TestProjection:
    def test_projection_inverts_rays(self, cam):
        """A point along pixel (px, py)'s ray projects back to (px, py)."""
        px = np.array([10, 50, 99])
        py = np.array([5, 40, 79])
        o, d = cam.rays_for_pixels(px, py)
        points = o + 7.5 * d
        pix = cam.project(points)
        assert np.allclose(pix[:, 0], px, atol=1e-6)
        assert np.allclose(pix[:, 1], py, atol=1e-6)

    def test_point_behind_eye_is_nan(self, cam):
        pix = cam.project(np.array([0.0, 0.0, -20.0]))
        assert np.all(np.isnan(pix))

    def test_visibility_key_is_the_l1_gap_to_the_box(self, cam):
        # Zero for a box holding the eye, on a face or inside it.
        assert cam.visibility_key([-1, -1, -11], [1, 1, -9]) == 0.0
        assert cam.visibility_key([0, 0, -10], [1, 1, 0]) == 0.0
        assert cam.visibility_key([0, 0, 0], [1, 1, 1]) == 10.0
        assert cam.visibility_key([2, -5, -3], [4, -4, 0]) == 2.0 + 4.0 + 7.0

    def test_visibility_key_rises_strictly_across_a_cut(self, cam):
        # Uneven bricks [0, 6] and [6, 11] on x: the eye sits between the
        # centres' bisector (5.75) and the cut, so the farther brick's
        # centre is the nearer one; a ray going +x still meets [0, 6]
        # first, and so does the key.
        eye_cam = Camera(eye=(5.9, 0.5, -20), center=(5.9, 0.5, 0))
        near = eye_cam.visibility_key([0, 0, 0], [6, 1, 1])
        far = eye_cam.visibility_key([6, 0, 0], [11, 1, 1])
        assert near < far
        assert np.linalg.norm(eye_cam.eye - [3, 0.5, 0.5]) > np.linalg.norm(
            eye_cam.eye - [8.5, 0.5, 0.5]
        )


class TestFootprint:
    def test_centered_box_covers_center(self, cam):
        rect = cam.footprint(np.array([-1, -1, -1]), np.array([1, 1, 1]))
        assert rect is not None
        x0, y0, w, h = rect
        assert x0 <= 50 <= x0 + w
        assert y0 <= 40 <= y0 + h

    def test_footprint_clipped_to_image(self, cam):
        rect = cam.footprint(np.array([-100, -100, -5]), np.array([100, 100, 5]))
        assert rect == (0, 0, 100, 80)

    def test_offscreen_box_none(self, cam):
        rect = cam.footprint(np.array([500, 500, 5]), np.array([501, 501, 6]))
        assert rect is None

    def test_box_behind_camera_conservative(self, cam):
        rect = cam.footprint(np.array([-1, -1, -30]), np.array([1, 1, -15]))
        assert rect == (0, 0, 100, 80)

    def test_smaller_box_smaller_footprint(self, cam):
        big = cam.footprint(np.array([-2, -2, -2]), np.array([2, 2, 2]))
        small = cam.footprint(np.array([-1, -1, -1]), np.array([1, 1, 1]))
        assert big is not None and small is not None
        assert small[2] * small[3] < big[2] * big[3]


class TestLookingAtVolume:
    def test_whole_volume_visible(self):
        cam = Camera.looking_at_volume((32, 32, 32), width=64, height=64)
        rect = cam.footprint(np.array([0, 0, 0]), np.array([31, 31, 31]))
        assert rect is not None
        x0, y0, w, h = rect
        assert w > 10 and h > 10  # fills a good part of the frame
        assert 0 <= x0 and x0 + w <= 64

    def test_invalid_args(self):
        with pytest.raises(ConfigError):
            Camera((0, 0, 0), (0, 0, 0))  # eye == center
        with pytest.raises(ConfigError):
            Camera((0, 0, -1), (0, 0, 0), width=0)
        with pytest.raises(ConfigError):
            Camera((0, 0, -1), (0, 0, 0), fov_deg=200)


class TestOrthographic:
    def _ortho(self):
        return Camera(
            eye=(0, 0, -10), center=(0, 0, 0), width=64, height=64,
            orthographic=True, ortho_height=4.0,
        )

    def test_rays_parallel(self):
        cam = self._ortho()
        px, py = np.meshgrid(np.arange(64), np.arange(64))
        o, d = cam.rays_for_pixels(px, py)
        assert np.allclose(d, d[0, 0])
        # Origins spread across the view window.
        assert not np.allclose(o[0, 0], o[-1, -1])

    def test_frame_rays_keep_one_direction(self):
        # Every orthographic ray shares ``forward``: the frame's ray
        # table holds it once (stride 0), not once per pixel, just as
        # perspective holds its shared eye once.
        _o, d = self._ortho().with_frame_rays()._frame_rays
        assert d.strides[:2] == (0, 0)
        o, _d = Camera((0, 0, -10), (0, 0, 0), width=64, height=64).with_frame_rays()._frame_rays
        assert o.strides[:2] == (0, 0)

    def test_projection_inverts_rays(self):
        cam = self._ortho()
        px = np.array([3, 31, 60])
        py = np.array([5, 32, 63])
        o, d = cam.rays_for_pixels(px, py)
        pix = cam.project(o + 4.0 * d)
        assert np.allclose(pix[:, 0], px, atol=1e-9)
        assert np.allclose(pix[:, 1], py, atol=1e-9)

    def test_no_perspective_shrink(self):
        """Same-size objects project same-size at any depth."""
        cam = self._ortho()
        near = cam.project(np.array([[1.0, 0, -2.0], [-1.0, 0, -2.0]]))
        far = cam.project(np.array([[1.0, 0, 5.0], [-1.0, 0, 5.0]]))
        assert np.allclose(near[:, 0], far[:, 0])

    def test_visibility_key_is_axial_depth(self):
        cam = self._ortho()
        # The box centre's coordinate along the view axis (+z here), so
        # boxes at the same z tie even off axis.
        assert cam.visibility_key([-1, -1, 2], [1, 1, 4]) == 3.0
        assert cam.visibility_key([5, 5, 2], [7, 9, 4]) == 3.0
        assert cam.visibility_key([0, 0, -30], [1, 1, -20]) == -25.0

    def test_parallel_render_matches_serial_ortho(self, rng):
        from repro.render.decomposition import BlockDecomposition
        from repro.render.image import blank_image, composite_over
        from repro.render.raycast import render_block, render_volume_serial
        from repro.render.transfer import TransferFunction
        from repro.render.volume import VolumeBlock

        grid = (12, 12, 12)
        data = rng.random(grid).astype(np.float32)
        cam = Camera(
            eye=(40.0, 20.0, -25.0), center=(5.5, 5.5, 5.5), width=32, height=32,
            orthographic=True, ortho_height=24.0,
        )
        tf = TransferFunction.grayscale_ramp()
        ref = render_volume_serial(cam, data, tf, step=0.7)
        dec = BlockDecomposition(grid, 8)
        partials = []
        for b in dec.blocks():
            rs, rc, gl = b.ghost_read(grid, ghost=1)
            sub = data[rs[0]:rs[0]+rc[0], rs[1]:rs[1]+rc[1], rs[2]:rs[2]+rc[2]]
            p = render_block(cam, VolumeBlock(sub, grid, b.start, b.count, gl), tf, 0.7)
            if p is not None:
                partials.append(p)
        img = composite_over(blank_image(32, 32), partials)
        assert np.abs(img - ref).max() < 5e-3

    def test_invalid_ortho_height(self):
        with pytest.raises(ConfigError):
            Camera((0, 0, -5), (0, 0, 0), orthographic=True, ortho_height=0.0)

    def test_default_ortho_height_frames_center(self):
        cam = Camera((0, 0, -10), (0, 0, 0), fov_deg=30, width=64, height=64,
                     orthographic=True)
        # Matches the perspective frame at the centre's distance.
        expected = 2 * 10 * np.tan(np.radians(15.0)) / 2
        assert cam._half_h == pytest.approx(expected)
