"""Binary-swap baseline: matches serial, and is radix-k with k = 2."""

import numpy as np
import pytest

from repro.compositing.binaryswap import binary_swap_compose
from repro.compositing.radixk import radix_k_compose, radix_k_gather
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
    rng = np.random.default_rng(7)
    data = rng.random(GRID).astype(np.float32)
    cam = Camera.looking_at_volume(GRID, width=W, height=H, azimuth_deg=50, elevation_deg=10)
    tf = TransferFunction.grayscale_ramp()
    return data, cam, tf


def make_partial(rank, dec, scene):
    data, cam, tf = scene
    b = dec.block(rank)
    rs, rc, gl = b.ghost_read(GRID, ghost=1)
    sub = data[rs[0] : rs[0] + rc[0], rs[1] : rs[1] + rc[1], rs[2] : rs[2] + rc[2]]
    return render_block(cam, VolumeBlock(sub, GRID, b.start, b.count, gl), tf, step=STEP)


@pytest.mark.parametrize("block_grid", [(2, 2, 2), (1, 2, 4), (2, 4, 2), (4, 2, 2), (2, 2, 4)])
class TestBinarySwap:
    def test_matches_serial(self, block_grid, scene):
        _data, cam, _tf = scene
        p = int(np.prod(block_grid))
        dec = BlockDecomposition(GRID, p, block_grid=block_grid)

        def program(ctx):
            partial = make_partial(ctx.rank, dec, scene)
            region, img = yield from binary_swap_compose(ctx, partial, dec, cam)
            return (yield from radix_k_gather(ctx, region, img, W, H, root=0))

        res = MPIWorld.for_cores(p).run(program)
        ref = compose_locally([make_partial(r, dec, scene) for r in range(p)], W, H)
        assert np.allclose(res[0], ref, atol=1e-5)


class TestRadix2Equivalence:
    """``binary_swap_compose`` and ``radix_k_compose(k=2)`` are one algorithm."""

    @pytest.mark.parametrize("width,height", [(40, 40), (64, 64), (37, 41)])
    @pytest.mark.parametrize("block_grid", [(2, 2, 2), (2, 4, 2), (1, 2, 4)])
    def test_same_pixels_and_message_count(self, block_grid, width, height, scene):
        data, _cam, tf = scene
        cam = Camera.looking_at_volume(
            GRID, width=width, height=height, azimuth_deg=50, elevation_deg=10
        )
        sized = (data, cam, tf)
        p = int(np.prod(block_grid))
        dec = BlockDecomposition(GRID, p, block_grid=block_grid)
        partials = [make_partial(r, dec, sized) for r in range(p)]

        def run(compose, **kwargs):
            def program(ctx):
                region, img = yield from compose(ctx, partials[ctx.rank], dec, cam, **kwargs)
                return (yield from radix_k_gather(ctx, region, img, width, height, root=0))

            return MPIWorld.for_cores(p).run(program)

        swap = run(binary_swap_compose)
        radix2 = run(radix_k_compose, k=2)
        assert np.array_equal(swap[0], radix2[0])
        assert swap.messages == radix2.messages
        ref = compose_locally(partials, width, height)
        assert np.allclose(swap[0], ref, atol=1e-5)
        assert np.allclose(radix2[0], ref, atol=1e-5)


class TestBinarySwapConstraints:
    def test_non_power_of_two_axis_rejected(self, scene):
        _data, cam, _tf = scene
        dec = BlockDecomposition((18, 16, 16), 6, block_grid=(3, 2, 1))

        def program(ctx):
            yield from binary_swap_compose(ctx, None, dec, cam)

        with pytest.raises(ConfigError, match="power of two"):
            MPIWorld.for_cores(6).run(program)

    def test_rank_block_mismatch_rejected(self, scene):
        _data, cam, _tf = scene
        dec = BlockDecomposition(GRID, 8, block_grid=(2, 2, 2))

        def program(ctx):
            yield from binary_swap_compose(ctx, None, dec, cam)

        with pytest.raises(ConfigError, match="one block per rank"):
            MPIWorld.for_cores(4).run(program)

    def test_regions_partition_image(self, scene):
        _data, cam, _tf = scene
        dec = BlockDecomposition(GRID, 8, block_grid=(2, 2, 2))

        def program(ctx):
            partial = make_partial(ctx.rank, dec, scene)
            region, _img = yield from binary_swap_compose(ctx, partial, dec, cam)
            return region

        res = MPIWorld.for_cores(8).run(program)
        count = np.zeros((H, W), dtype=int)
        for x0, y0, w, h in res.values:
            count[y0 : y0 + h, x0 : x0 + w] += 1
        assert np.all(count == 1)

    def test_message_sizes_halve_each_round(self, scene):
        """Binary swap's signature: log2(p) rounds of shrinking halves."""
        _data, cam, _tf = scene
        dec = BlockDecomposition(GRID, 8, block_grid=(2, 2, 2))

        def program(ctx):
            partial = make_partial(ctx.rank, dec, scene)
            region, img = yield from binary_swap_compose(ctx, partial, dec, cam)
            return region

        world = MPIWorld.for_cores(8)
        res = world.run(program)
        # 3 rounds x 8 ranks swap messages + gather-free return.
        assert res.messages == 3 * 8
