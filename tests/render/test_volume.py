"""Volume blocks and trilinear sampling."""

import numpy as np
import pytest

from repro.render.volume import VolumeBlock
from repro.utils.errors import ConfigError


class TestGeometry:
    def test_whole_volume_bounds(self):
        vb = VolumeBlock.whole(np.zeros((4, 6, 8), np.float32))
        assert np.array_equal(vb.world_lo, [0, 0, 0])
        assert np.array_equal(vb.world_hi, [7, 5, 3])  # (x, y, z)

    def test_interior_block_extends_to_neighbour(self):
        data = np.zeros((4, 8, 8), np.float32)
        vb = VolumeBlock(data[:, :, :4], (4, 8, 8), (0, 0, 0), (4, 8, 4))
        # Interior x face ends at the neighbour's first voxel (x=4).
        assert vb.world_hi[0] == 4

    def test_boundary_block_clipped(self):
        data = np.zeros((4, 8, 8), np.float32)
        vb = VolumeBlock(data[:, :, 4:], (4, 8, 8), (0, 0, 4), (4, 8, 4))
        assert vb.world_hi[0] == 7  # volume edge, not 8

    def test_invalid_construction(self):
        with pytest.raises(ConfigError):
            VolumeBlock(np.zeros((2, 2), np.float32), (2, 2, 2), (0, 0, 0), (2, 2, 2))
        with pytest.raises(ConfigError):
            VolumeBlock(np.zeros((2, 2, 2), np.float32), (2, 2, 2), (1, 1, 1), (2, 2, 2))


class TestSampling:
    def test_exact_at_grid_points(self, rng):
        data = rng.random((5, 5, 5)).astype(np.float32)
        vb = VolumeBlock.whole(data)
        pts = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [4.0, 4.0, 4.0]])
        vals = vb.sample_world(pts)
        assert vals[0] == pytest.approx(data[3, 2, 1], rel=1e-6)
        assert vals[1] == pytest.approx(data[0, 0, 0], rel=1e-6)
        assert vals[2] == pytest.approx(data[4, 4, 4], rel=1e-6)

    def test_linear_along_axis(self):
        data = np.zeros((2, 2, 2), np.float32)
        data[:, :, 1] = 1.0
        vb = VolumeBlock.whole(data)
        xs = np.linspace(0, 1, 11)
        pts = np.stack([xs, np.zeros(11), np.zeros(11)], axis=-1)
        assert np.allclose(vb.sample_world(pts), xs, atol=1e-6)

    def test_clamping_outside(self):
        data = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
        vb = VolumeBlock.whole(data)
        assert vb.sample_world(np.array([[-1.0, 0, 0]])) == pytest.approx(data[0, 0, 0])
        assert vb.sample_world(np.array([[5.0, 5.0, 5.0]])) == pytest.approx(data[1, 1, 1])

    def test_ghost_makes_blocks_agree_at_shared_face(self, rng):
        """Samples on the face between blocks must match exactly."""
        grid = (8, 8, 8)
        data = rng.random(grid).astype(np.float32)
        left = VolumeBlock(data[:, :, :5], grid, (0, 0, 0), (8, 8, 4))  # +1 ghost x
        right = VolumeBlock(data[:, :, 3:], grid, (0, 0, 4), (8, 8, 4), ghost_lo=(0, 0, 1))
        face_pts = np.stack(
            [np.full(20, 4.0), rng.uniform(0, 7, 20), rng.uniform(0, 7, 20)], axis=-1
        )
        assert np.allclose(left.sample_world(face_pts), right.sample_world(face_pts), atol=1e-6)

    def test_interior_sample_near_face_uses_ghost(self, rng):
        grid = (4, 4, 8)
        data = rng.random(grid).astype(np.float32)
        whole = VolumeBlock.whole(data)
        left = VolumeBlock(data[:, :, :5], grid, (0, 0, 0), (4, 4, 4))
        pts = np.array([[3.7, 1.2, 2.1], [3.99, 3.0, 1.0]])
        assert np.allclose(left.sample_world(pts), whole.sample_world(pts), atol=1e-6)
