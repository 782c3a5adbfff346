"""Ladder arithmetic and the multiresolution pyramid."""

import numpy as np
import pytest

from repro.progressive import (
    build_pyramid,
    check_ladder_fits,
    ladder_edges,
    ladder_scales,
    level_edge,
    levels_before_move,
    subsample,
)
from repro.render.camera import Camera
from repro.utils.errors import ConfigError


class TestScales:
    def test_power_of_two_coarse_first(self):
        assert ladder_scales(4) == (8, 4, 2, 1)
        assert ladder_scales(2) == (2, 1)

    def test_single_level_is_full_res(self):
        assert ladder_scales(1) == (1,)

    def test_rejects_non_positive(self):
        with pytest.raises(ConfigError):
            ladder_scales(0)

    def test_edges_end_at_full(self):
        assert ladder_edges(24, 3) == (6, 12, 24)
        assert ladder_edges(24, 1) == (24,)

    def test_edge_floor_is_one_pixel(self):
        assert level_edge(3, 8) == 1

    def test_level_edge_matches_camera_scaled(self):
        """The ladder's edge arithmetic must agree with Camera.scaled —
        the farm prices levels by edge without building cameras."""
        cam = Camera.looking_at_volume((12, 12, 12), width=24, height=24)
        for f in (1, 2, 4, 8):
            scaled = cam.scaled(1.0 / f)
            assert scaled.width == level_edge(24, f)
            assert scaled.height == level_edge(24, f)


class TestLevelsBeforeMove:
    ENDS = (1.0, 2.0, 4.0, 8.0)

    def test_no_move_delivers_every_level(self):
        assert levels_before_move(self.ENDS, None) == 4

    def test_in_flight_level_completes(self):
        assert levels_before_move(self.ENDS, 3.0) == 3

    def test_move_at_a_level_end_stops_the_next_level(self):
        assert levels_before_move(self.ENDS, 2.0) == 2

    def test_coarsest_level_always_lands(self):
        assert levels_before_move(self.ENDS, 0.0) == 1

    def test_move_in_or_after_the_final_level_cuts_nothing(self):
        assert levels_before_move(self.ENDS, 5.0) == 4
        assert levels_before_move(self.ENDS, 8.0) == 4
        assert levels_before_move(self.ENDS, 9.0) == 4

    def test_reads_the_clock_only_as_far_as_the_rule_needs(self):
        asked = []

        def ends():
            for e in self.ENDS:
                asked.append(e)
                yield e

        assert levels_before_move(ends(), 1.5) == 2
        assert asked == [1.0, 2.0]


class TestPyramid:
    def test_subsample_shape_and_dtype(self, rng):
        field = rng.random((12, 10, 9)).astype(np.float32)
        out = subsample(field, 2)
        assert out.shape == (6, 5, 5)
        assert out.dtype == field.dtype
        assert out.flags["C_CONTIGUOUS"]

    def test_subsample_keeps_corner_voxel(self, rng):
        field = rng.random((8, 8, 8)).astype(np.float32)
        out = subsample(field, 4)
        assert out[0, 0, 0] == field[0, 0, 0]
        assert np.array_equal(out, field[::4, ::4, ::4])

    def test_scale_one_is_contiguous_copy(self, rng):
        field = rng.random((4, 4, 4)).astype(np.float32)[::1]
        out = subsample(field, 1)
        assert np.array_equal(out, field)

    def test_pyramid_last_entry_is_the_input(self, rng):
        field = rng.random((12, 12, 12)).astype(np.float32)
        pyramid = build_pyramid(field, 3)
        assert len(pyramid) == 3
        assert pyramid[-1] is field
        assert pyramid[0].shape == (3, 3, 3)
        assert pyramid[1].shape == (6, 6, 6)

    def test_pyramid_rejects_collapsing_grid(self):
        with pytest.raises(ConfigError, match="fewer levels"):
            build_pyramid(np.zeros((4, 4, 4), np.float32), 3)
        check_ladder_fits((4, 4, 4), 2)  # 2 voxels per axis is the floor

    def test_pyramid_rejects_non_3d(self):
        with pytest.raises(ConfigError, match="3D"):
            build_pyramid(np.zeros((4, 4), np.float32), 2)
