"""Message schedules: counts, sizes, and the O(m * n^(1/3)) scaling."""

import numpy as np
import pytest

from repro.compositing.schedule import (
    BYTES_PER_PIXEL,
    CompositeSchedule,
    build_schedule,
    schedule_from_geometry,
)
from repro.compositing.tiles import TileDecomposition
from repro.render.camera import Camera
from repro.render.decomposition import BlockDecomposition
from repro.utils.errors import ConfigError


class TestBuildSchedule:
    def test_messages_cover_footprints(self):
        tiles = TileDecomposition(100, 100, 4)
        sched = build_schedule([(40, 40, 20, 20), None, (0, 0, 10, 10), None], tiles, 4)
        # Renderer 0 straddles all four tiles; renderer 2 hits one.
        assert len(sched.outgoing(0)) == 4
        assert sched.outgoing(1) == []
        assert len(sched.outgoing(2)) == 1

    def test_pixel_conservation(self):
        """Across tiles, each footprint's pixels are sent exactly once."""
        tiles = TileDecomposition(96, 96, 9)
        rects = [(5, 5, 30, 40), (50, 20, 46, 76), (0, 0, 96, 96)]
        footprints = rects + [None] * 6  # 9 renderers, 3 with pixels
        sched = build_schedule(footprints, tiles, 9)
        for src, rect in enumerate(rects):
            sent = sum(m.pixels for m in sched.outgoing(src))
            assert sent == rect[2] * rect[3]

    def test_message_nbytes(self):
        tiles = TileDecomposition(10, 10, 1)
        sched = build_schedule([(0, 0, 10, 10)], tiles, 1)
        msg = sched.messages[0]
        assert msg.nbytes == 100 * BYTES_PER_PIXEL + 64

    def test_m_greater_than_n_rejected(self):
        tiles = TileDecomposition(10, 10, 4)
        with pytest.raises(ConfigError, match="cannot exceed"):
            CompositeSchedule(2, 4, tiles, [], [], [])

    def test_compositor_rank_is_tile_index(self):
        tiles = TileDecomposition(10, 10, 2)
        sched = build_schedule([(0, 0, 10, 10), (0, 0, 5, 5)], tiles, 2)
        assert sched.compositor_rank(0) == 0
        assert sched.compositor_rank(1) == 1
        with pytest.raises(ConfigError):
            sched.compositor_rank(2)


class TestGeometrySchedule:
    def test_every_onscreen_block_sends(self):
        grid = (16, 16, 16)
        cam = Camera.looking_at_volume(grid, width=64, height=64)
        dec = BlockDecomposition(grid, 8)
        sched = schedule_from_geometry(dec, cam, 4)
        senders = {m.src for m in sched.messages}
        assert senders == set(range(8))

    def test_total_bytes_scale_with_image(self):
        grid = (16, 16, 16)
        dec = BlockDecomposition(grid, 8)
        small = schedule_from_geometry(dec, Camera.looking_at_volume(grid, 32, 32), 4)
        large = schedule_from_geometry(dec, Camera.looking_at_volume(grid, 128, 128), 4)
        assert large.total_bytes > 4 * small.total_bytes

    def test_message_count_sublinear_in_m(self):
        """Fewer compositors -> fewer messages (the paper's lever)."""
        grid = (32, 32, 32)
        cam = Camera.looking_at_volume(grid, width=128, height=128)
        dec = BlockDecomposition(grid, 64)
        many = schedule_from_geometry(dec, cam, 64)
        few = schedule_from_geometry(dec, cam, 8)
        assert few.total_messages < many.total_messages
        # But mean message size grows.
        assert few.mean_message_bytes > many.mean_message_bytes

    def test_scaling_near_m_times_cuberoot_n(self):
        """Total messages ~ O(m * n^(1/3)) for square-ish tiles."""
        grid = (64, 64, 64)
        cam = Camera.looking_at_volume(grid, width=256, height=256)
        counts = {}
        for n in (64, 512):
            dec = BlockDecomposition(grid, n)
            counts[n] = schedule_from_geometry(dec, cam, n).total_messages
        # n grows 8x -> m*n^(1/3) grows 16x; allow geometry slack.
        ratio = counts[512] / counts[64]
        assert 8 < ratio < 40
