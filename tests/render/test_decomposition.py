"""Block decomposition invariants."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.render.camera import Camera
from repro.render.decomposition import BlockDecomposition, factor3
from repro.render.raycast import ray_box_intersect
from repro.utils.errors import ConfigError


class TestFactor3:
    @given(st.integers(min_value=1, max_value=100_000))
    def test_product_preserved(self, n):
        f = factor3(n)
        assert int(np.prod(f)) == n

    def test_powers_of_two_cubic(self):
        assert factor3(8) == (2, 2, 2)
        assert factor3(64) == (4, 4, 4)
        assert factor3(32768) == (32, 32, 32)


class TestDecomposition:
    @settings(max_examples=60, deadline=None)
    @given(
        st.tuples(
            st.integers(min_value=4, max_value=20),
            st.integers(min_value=4, max_value=20),
            st.integers(min_value=4, max_value=20),
        ),
        st.integers(min_value=1, max_value=32),
    )
    def test_blocks_partition_exactly(self, grid, nblocks):
        """Every voxel belongs to exactly one block."""
        try:
            dec = BlockDecomposition(grid, nblocks)
        except ConfigError:
            return  # more blocks than voxels along an axis — fine
        count = np.zeros(grid, dtype=np.int32)
        for b in dec.blocks():
            sl = tuple(slice(s, s + c) for s, c in zip(b.start, b.count))
            count[sl] += 1
        assert np.all(count == 1)

    def test_balanced_sizes(self):
        dec = BlockDecomposition((10, 10, 10), 8)
        sizes = [np.prod(b.count) for b in dec.blocks()]
        assert max(sizes) == 125 and min(sizes) == 125

    def test_uneven_split_differs_by_one_layer(self):
        dec = BlockDecomposition((10, 4, 4), 3, block_grid=(3, 1, 1))
        zs = [b.count[0] for b in dec.blocks()]
        assert sorted(zs) == [3, 3, 4]

    def test_block_grid_must_match(self):
        with pytest.raises(ConfigError, match="does not produce"):
            BlockDecomposition((8, 8, 8), 8, block_grid=(2, 2, 3))

    def test_too_many_blocks_rejected(self):
        with pytest.raises(ConfigError, match="more blocks than voxels"):
            BlockDecomposition((2, 2, 2), 64)

    def test_round_robin_rank_allocation(self):
        dec = BlockDecomposition((8, 8, 8), 8)
        owned = [b.index for r in range(4) for b in dec.blocks_for_rank(r, 4)]
        assert sorted(owned) == list(range(8))
        assert [b.index for b in dec.blocks_for_rank(1, 4)] == [1, 5]


class TestGhostRead:
    def test_interior_block_gets_full_ghost(self):
        dec = BlockDecomposition((12, 12, 12), 27, block_grid=(3, 3, 3))
        b = dec.block(13)  # center block
        rs, rc, gl = b.ghost_read((12, 12, 12), ghost=1)
        assert rs == (3, 3, 3)
        assert rc == (6, 6, 6)
        assert gl == (1, 1, 1)

    def test_corner_block_clipped(self):
        dec = BlockDecomposition((12, 12, 12), 27, block_grid=(3, 3, 3))
        b = dec.block(0)
        rs, rc, gl = b.ghost_read((12, 12, 12), ghost=1)
        assert rs == (0, 0, 0)
        assert rc == (5, 5, 5)
        assert gl == (0, 0, 0)


class TestVisibilityKey:
    """``Camera.visibility_key`` of the blocks' boxes is the blending
    order: along every ray, a block whose segment ends before another's
    begins has the smaller key."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.tuples(*[st.integers(min_value=5, max_value=13)] * 3),
        st.sampled_from([2, 3, 5, 8, 12, 27]),
        st.tuples(*[st.floats(min_value=-12.0, max_value=24.0)] * 3),
        st.tuples(*[st.floats(min_value=-1.0, max_value=1.0)] * 3),
        st.booleans(),
    )
    # 12 nodes cut 6 + 6 span [0, 6] and [6, 11]; an eye between the
    # centres' bisector (5.75) and the cut sees the farther centre as
    # the nearer one.  Then an eye inside the volume, 0.1 from a cut.
    @example((12, 12, 12), 2, (5.9, 5.5, -0.3), (0.05, 0.0, 1.0), False)
    @example((11, 13, 7), 8, (3.9, 5.6, 2.5), (-0.1, -4.3, 4.4), False)
    def test_rises_along_every_ray(self, grid, nblocks, eye, look, orthographic):
        assume(all(g >= b for g, b in zip(grid, factor3(nblocks))))
        assume(0.1 < np.linalg.norm(look) and abs(look[1]) < 0.99 * np.linalg.norm(look))
        cam = Camera(eye, tuple(np.add(eye, look)), fov_deg=90.0, width=9, height=7,
                     orthographic=orthographic, ortho_height=30.0)
        lo, hi = BlockDecomposition(grid, nblocks).world_bounds()
        keys = np.array([cam.visibility_key(a, b) for a, b in zip(lo, hi)])
        origins, dirs = cam.rays_for_rect((0, 0, cam.width, cam.height))
        t_in, t_out = ray_box_intersect(origins[None], dirs[None], lo[:, None, None], hi[:, None, None])
        hit = t_out > t_in
        # before[a, b]: some ray leaves block a no later than it enters b.
        before = (hit[:, None] & hit[None, :] & (t_out[:, None] <= t_in[None, :])).any(axis=(2, 3))
        a, b = np.nonzero(before)
        assert np.all(keys[a] < keys[b])
