"""Gradient shading: physics sanity and block-parallel exactness."""

import numpy as np
import pytest

from repro.render.camera import Camera
from repro.render.decomposition import BlockDecomposition
from repro.render.image import blank_image, composite_over
from repro.render.shading import gradient_at, render_block_shaded, render_shaded_serial
from repro.render.transfer import TransferFunction
from repro.render.volume import VolumeBlock
from repro.utils.errors import ConfigError

GRID = (16, 16, 16)


class TestGradient:
    def test_linear_field_constant_gradient(self):
        z, y, x = np.meshgrid(*[np.arange(8.0)] * 3, indexing="ij")
        data = (3 * x + 2 * y - z).astype(np.float32)
        block = VolumeBlock.whole(data)
        pts = np.array([[3.0, 3.0, 3.0], [2.5, 4.5, 3.5]])
        g = gradient_at(block, pts, h=1.0)
        assert np.allclose(g, [[3.0, 2.0, -1.0]] * 2, atol=1e-5)

    def test_invalid_h(self):
        block = VolumeBlock.whole(np.zeros((4, 4, 4), np.float32))
        with pytest.raises(ConfigError):
            gradient_at(block, np.zeros((1, 3)), h=0)


class TestShadedRender:
    def test_shading_darkens_oblique_surfaces(self, rng):
        """Shaded image differs from unshaded and never brightens
        beyond the ambient+diffuse ceiling."""
        data = rng.random(GRID).astype(np.float32)
        cam = Camera.looking_at_volume(GRID, width=32, height=32)
        tf = TransferFunction.grayscale_ramp()
        shaded = render_shaded_serial(cam, data, tf, step=0.7)
        from repro.render.raycast import render_volume_serial

        flat = render_volume_serial(cam, data, tf, step=0.7)
        assert not np.allclose(shaded, flat, atol=1e-3)
        # Same opacity field; only colour changes.
        assert np.allclose(shaded[..., 3], flat[..., 3], atol=1e-5)

    @pytest.mark.parametrize("nblocks", (4, 8))
    def test_parallel_equals_serial_with_ghost2(self, rng, nblocks):
        """Gradient stencils reach one voxel past the sample, so two
        ghost layers make block-parallel shading exact."""
        data = rng.random(GRID).astype(np.float32)
        cam = Camera.looking_at_volume(GRID, width=36, height=30)
        tf = TransferFunction.grayscale_ramp()
        ref = render_shaded_serial(cam, data, tf, step=0.7)
        dec = BlockDecomposition(GRID, nblocks)
        partials = []
        for b in dec.blocks():
            rs, rc, gl = b.ghost_read(GRID, ghost=2)
            sub = data[rs[0] : rs[0] + rc[0], rs[1] : rs[1] + rc[1], rs[2] : rs[2] + rc[2]]
            p = render_block_shaded(cam, VolumeBlock(sub, GRID, b.start, b.count, gl), tf, 0.7)
            if p is not None:
                partials.append(p)
        img = composite_over(blank_image(36, 30), partials)
        assert np.abs(img - ref).max() < 5e-3

    def test_custom_light_direction_changes_image(self, rng):
        data = rng.random(GRID).astype(np.float32)
        cam = Camera.looking_at_volume(GRID, width=24, height=24)
        tf = TransferFunction.grayscale_ramp()
        head = render_shaded_serial(cam, data, tf, step=0.8)
        side = render_shaded_serial(cam, data, tf, step=0.8, light_dir=(1.0, 0.0, 0.0))
        assert not np.allclose(head, side, atol=1e-4)

    def test_zero_light_rejected(self, rng):
        data = rng.random((8, 8, 8)).astype(np.float32)
        cam = Camera.looking_at_volume((8, 8, 8), width=8, height=8)
        with pytest.raises(ConfigError, match="light"):
            render_block_shaded(
                cam, VolumeBlock.whole(data), TransferFunction.grayscale_ramp(),
                light_dir=(0, 0, 0),
            )

    @pytest.mark.parametrize("et", [0.0, -1.0, 1.5, float("nan")])
    def test_bad_early_termination_rejected(self, rng, et):
        # 0 and NaN used to finish every ray before its first sample and
        # return None, a silently blank block, where render_block raises.
        block = VolumeBlock.whole(rng.random((12, 12, 12)).astype(np.float32))
        cam = Camera.looking_at_volume((12, 12, 12), width=16, height=16)
        tf = TransferFunction.grayscale_ramp()
        assert render_block_shaded(cam, block, tf) is not None
        with pytest.raises(ConfigError, match="early_termination"):
            render_block_shaded(cam, block, tf, early_termination=et)


class TestTrimming:
    def test_trim_roundtrip_identical_composite(self, rng):
        """Trimmed pieces produce the identical final image."""
        from repro.compositing.directsend import assemble_final_image, direct_send_compose
        from repro.compositing.schedule import schedule_from_geometry
        from repro.render.raycast import render_block
        from repro.vmpi import MPIWorld

        data = rng.random(GRID).astype(np.float32)
        cam = Camera.looking_at_volume(GRID, width=40, height=40)
        tf = TransferFunction.grayscale_ramp()
        dec = BlockDecomposition(GRID, 8)
        sched = schedule_from_geometry(dec, cam, 8)

        def program(ctx, compress):
            b = dec.block(ctx.rank)
            rs, rc, gl = b.ghost_read(GRID, ghost=1)
            sub = data[rs[0] : rs[0] + rc[0], rs[1] : rs[1] + rc[1], rs[2] : rs[2] + rc[2]]
            partial = render_block(cam, VolumeBlock(sub, GRID, b.start, b.count, gl), tf, 0.8)
            tile = yield from direct_send_compose(ctx, partial, sched, compress=compress)
            return (yield from assemble_final_image(ctx, tile, sched, root=0))

        world = MPIWorld.for_cores(8)
        plain = world.run(program, False)
        plain_bytes = plain.bytes_sent
        compressed = world.run(program, True)
        assert np.allclose(plain[0], compressed[0], atol=1e-6)
        assert compressed.bytes_sent < plain_bytes  # smaller messages

    def test_trimmed_bbox_exact(self):
        from repro.render.image import PartialImage

        rgba = np.zeros((6, 8, 4), np.float32)
        rgba[2:4, 3:6, 3] = 0.5
        p = PartialImage((10, 20, 8, 6), rgba, depth=1.0)
        t = p.trimmed()
        assert t.rect == (13, 22, 3, 2)
        assert np.array_equal(t.rgba, rgba[2:4, 3:6])

    def test_trim_fully_transparent(self):
        from repro.render.image import PartialImage

        p = PartialImage((0, 0, 4, 4), np.zeros((4, 4, 4), np.float32), depth=1.0)
        assert p.trimmed().empty

    def test_trim_noop_when_full(self):
        from repro.render.image import PartialImage

        rgba = np.full((2, 2, 4), 0.5, np.float32)
        p = PartialImage((0, 0, 2, 2), rgba, depth=1.0)
        assert p.trimmed() is p
