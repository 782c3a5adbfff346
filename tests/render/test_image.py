"""Active-pixel trimming of partial images (``PartialImage.trimmed``)."""

import numpy as np

from repro.render.camera import Camera
from repro.render.decomposition import BlockDecomposition
from repro.render.transfer import TransferFunction
from repro.render.volume import VolumeBlock

GRID = (16, 16, 16)


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
