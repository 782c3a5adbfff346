"""Radix-k compositing: generalizes binary swap, matches the oracle."""

import numpy as np
import pytest

from repro.compositing.radixk import default_radices, radix_k_compose, radix_k_gather
from repro.compositing.serial import compose_locally
from repro.render.camera import Camera
from repro.render.decomposition import BlockDecomposition
from repro.render.raycast import render_block
from repro.render.transfer import TransferFunction
from repro.render.volume import VolumeBlock
from repro.utils.errors import ConfigError
from repro.vmpi import MPIWorld

GRID = (16, 16, 16)
W, H = 40, 40
STEP = 0.8


@pytest.fixture(scope="module")
def scene():
    rng = np.random.default_rng(17)
    data = rng.random(GRID).astype(np.float32)
    cam = Camera.looking_at_volume(GRID, width=W, height=H, azimuth_deg=40, elevation_deg=18)
    tf = TransferFunction.grayscale_ramp()
    return data, cam, tf


def make_partial(rank, dec, scene):
    data, cam, tf = scene
    b = dec.block(rank)
    rs, rc, gl = b.ghost_read(GRID, ghost=1)
    sub = data[rs[0] : rs[0] + rc[0], rs[1] : rs[1] + rc[1], rs[2] : rs[2] + rc[2]]
    return render_block(cam, VolumeBlock(sub, GRID, b.start, b.count, gl), tf, step=STEP)


def run_radix(scene, block_grid, radices=None, k=4):
    _data, cam, _tf = scene
    p = int(np.prod(block_grid))
    dec = BlockDecomposition(GRID, p, block_grid=block_grid)

    def program(ctx):
        partial = make_partial(ctx.rank, dec, scene)
        region, img = yield from radix_k_compose(ctx, partial, dec, cam, radices, k)
        full = yield from radix_k_gather(ctx, region, img, W, H, root=0)
        return full, region

    res = MPIWorld.for_cores(p).run(program)
    ref = compose_locally([make_partial(r, dec, scene) for r in range(p)], W, H)
    return res, ref


class TestDefaultRadices:
    def test_factors_within_k(self):
        assert default_radices(8, 2) == [2, 2, 2]
        assert default_radices(8, 4) == [4, 2]
        assert default_radices(12, 4) == [4, 3]
        assert default_radices(1, 4) == [1]

    def test_prime_larger_than_k_rejected(self):
        with pytest.raises(ConfigError):
            default_radices(7, 4)


class TestRadixKCorrectness:
    @pytest.mark.parametrize(
        "block_grid,k",
        [((2, 2, 2), 2), ((2, 2, 2), 4), ((4, 2, 2), 4), ((2, 4, 2), 4), ((1, 4, 4), 4), ((4, 4, 1), 2)],
    )
    def test_matches_serial(self, scene, block_grid, k):
        res, ref = run_radix(scene, block_grid, k=k)
        assert np.allclose(res[0][0], ref, atol=1e-5)

    def test_explicit_radices(self, scene):
        res, ref = run_radix(scene, (4, 2, 2), radices={"z": [2, 2], "y": [2], "x": [2]})
        assert np.allclose(res[0][0], ref, atol=1e-5)

    def test_regions_partition_image(self, scene):
        res, _ref = run_radix(scene, (2, 2, 2), k=2)
        count = np.zeros((H, W), dtype=int)
        for _full, (x0, y0, w, h) in res.values:
            count[y0 : y0 + h, x0 : x0 + w] += 1
        assert np.all(count == 1)

    def test_k2_message_count_equals_binary_swap(self, scene):
        """k=2 radix-k IS binary swap: p * log2(p) swap messages."""
        res, _ref = run_radix(scene, (2, 2, 2), k=2)
        # 3 rounds x 8 ranks x 1 partner message, plus the gather tree.
        assert res.messages >= 24

    def test_larger_k_fewer_rounds_more_messages_per_round(self, scene):
        res_k2, _ = run_radix(scene, (1, 4, 4), k=2)
        res_k4, _ = run_radix(scene, (1, 4, 4), k=4)
        # k=4: 2 rounds of 3 partners each = 6 sends/rank;
        # k=2: 4 rounds of 1 partner = 4 sends/rank.
        assert res_k4.messages > res_k2.messages


class TestRadixKValidation:
    def test_wrong_rank_count(self, scene):
        _data, cam, _tf = scene
        dec = BlockDecomposition(GRID, 8, block_grid=(2, 2, 2))

        def program(ctx):
            yield from radix_k_compose(ctx, None, dec, cam)

        with pytest.raises(ConfigError, match="one block per rank"):
            MPIWorld.for_cores(4).run(program)

    def test_mismatched_radices(self, scene):
        _data, cam, _tf = scene
        dec = BlockDecomposition(GRID, 8, block_grid=(2, 2, 2))

        def program(ctx):
            yield from radix_k_compose(ctx, None, dec, cam, radices={"z": [4]})

        with pytest.raises(ConfigError, match="multiply to"):
            MPIWorld.for_cores(8).run(program)


class TestRadixKProperties:
    from hypothesis import example, given, settings, strategies as st

    @settings(max_examples=6, deadline=None)
    @given(
        st.sampled_from([(2, 2, 2), (1, 2, 4), (4, 2, 1)]),
        st.integers(min_value=2, max_value=4),
        st.floats(min_value=-70, max_value=70),
        st.floats(min_value=-30, max_value=30),
        st.floats(min_value=0.05, max_value=2.5),
    )
    # The eye inside some axis's block span (64 ranks), and inside the
    # volume (27 ranks): group members lie on both sides of it.
    @example((4, 4, 4), 4, 0.0, 20.0, 2.2)
    @example((4, 4, 4), 4, 35.0, 0.0, 2.2)
    @example((4, 4, 4), 4, 0.0, 0.0, 2.2)
    @example((4, 4, 4), 4, 90.0, 5.0, 2.2)
    @example((3, 3, 3), 3, 20.0, 10.0, 0.05)
    def test_random_grids_and_views_match_serial(self, block_grid, k, azimuth, elevation, distance):
        """Any factorization, any view, any eye position: radix-k equals serial."""
        import numpy as np

        rng = np.random.default_rng(int(abs(azimuth) * 100) + k)
        data = rng.random(GRID).astype(np.float32)
        cam = Camera.looking_at_volume(GRID, width=24, height=24, azimuth_deg=azimuth,
                                       elevation_deg=elevation, distance_factor=distance)
        tf = TransferFunction.grayscale_ramp()
        p = int(np.prod(block_grid))
        dec = BlockDecomposition(GRID, p, block_grid=block_grid)

        def make(rank):
            b = dec.block(rank)
            rs, rc, gl = b.ghost_read(GRID, ghost=1)
            sub = data[rs[0]:rs[0]+rc[0], rs[1]:rs[1]+rc[1], rs[2]:rs[2]+rc[2]]
            return render_block(cam, VolumeBlock(sub, GRID, b.start, b.count, gl), tf, STEP)

        def program(ctx):
            region, img = yield from radix_k_compose(ctx, make(ctx.rank), dec, cam, None, k)
            return (yield from radix_k_gather(ctx, region, img, 24, 24, root=0))

        res = MPIWorld.for_cores(p).run(program)
        ref = compose_locally([make(r) for r in range(p)], 24, 24)
        assert np.allclose(res[0], ref, atol=1e-5)
