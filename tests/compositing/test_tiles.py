"""Tile decompositions of the final image."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compositing.schedule import build_schedule
from repro.compositing.tiles import TileDecomposition, factor2
from repro.utils.errors import ConfigError


def overlaps(tiles, rect):
    """{tile: shared pixels} for one footprint rect, in schedule order."""
    sched = build_schedule([rect] + [None] * (tiles.num_tiles - 1), tiles, tiles.num_tiles)
    return dict(zip(sched.tile.tolist(), sched.pixels.tolist()))


class TestFactor2:
    def test_square_for_square_aspect(self):
        assert factor2(16, 1.0) == (4, 4)

    def test_respects_aspect(self):
        gx, gy = factor2(8, 2.0)
        assert gx == 4 and gy == 2

    @given(st.integers(min_value=1, max_value=500))
    def test_product(self, m):
        gx, gy = factor2(m)
        assert gx * gy == m


class TestTileDecomposition:
    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=8, max_value=200),
        st.integers(min_value=8, max_value=200),
        st.integers(min_value=1, max_value=64),
    )
    def test_tiles_partition_image(self, w, h, m):
        try:
            tiles = TileDecomposition(w, h, m)
        except ConfigError:
            return
        count = np.zeros((h, w), dtype=np.int32)
        for x0, y0, tw, th in tiles.tiles():
            count[y0 : y0 + th, x0 : x0 + tw] += 1
        assert np.all(count == 1)

    def test_strips_mode(self):
        tiles = TileDecomposition(64, 64, 8, strips=True)
        assert tiles.grid == (1, 8)
        assert all(t[2] == 64 for t in tiles.tiles())  # full-width strips

    # Which tiles a footprint rect overlaps, and by how much, is
    # answered by the one enumerator: build_schedule.

    def test_overlapping_tiles_found(self):
        tiles = TileDecomposition(100, 100, 4)  # 2x2 grid of 50x50
        assert overlaps(tiles, (40, 40, 20, 20)) == {0: 100, 1: 100, 2: 100, 3: 100}
        assert list(overlaps(tiles, (40, 40, 20, 20))) == [0, 1, 2, 3]
        assert list(overlaps(tiles, (0, 0, 10, 10))) == [0]
        assert list(overlaps(tiles, (60, 10, 10, 10))) == [1]

    def test_empty_rect_overlaps_nothing(self):
        tiles = TileDecomposition(100, 100, 4)
        assert overlaps(tiles, (10, 10, 0, 5)) == {}

    def test_overlap_area(self):
        tiles = TileDecomposition(100, 100, 4)
        assert overlaps(tiles, (40, 40, 20, 20))[0] == 100
        assert 3 not in overlaps(tiles, (0, 0, 10, 10))

    def test_overlap_areas_sum_to_rect(self):
        tiles = TileDecomposition(120, 80, 12)
        assert sum(overlaps(tiles, (13, 7, 55, 41)).values()) == 55 * 41

    def test_too_many_tiles_rejected(self):
        with pytest.raises(ConfigError):
            TileDecomposition(4, 4, 100)

    def test_bad_index_rejected(self):
        with pytest.raises(ConfigError):
            TileDecomposition(10, 10, 2).tile(5)
