"""Consistency between the functional (DES) path and the analytic model.

The same geometry must produce the same message schedule in both
worlds, and configuration *orderings* (which compositor count is
cheaper) must agree — that is what makes the paper-scale model's
conclusions trustworthy.
"""

import numpy as np
import pytest

from repro.compositing.directsend import direct_send_compose
from repro.compositing.policy import fixed_policy
from repro.compositing.schedule import schedule_from_geometry
from repro.model.composite import CompositeTimeModel
from repro.render.camera import Camera
from repro.render.decomposition import BlockDecomposition
from repro.render.image import PartialImage
from repro.render.raycast import render_block
from repro.render.transfer import TransferFunction
from repro.render.volume import VolumeBlock
from repro.vmpi import MPIWorld

GRID = (16, 16, 16)


@pytest.fixture(scope="module")
def scene(request):
    rng = np.random.default_rng(13)
    data = rng.random(GRID).astype(np.float32)
    cam = Camera.looking_at_volume(GRID, width=64, height=64)
    tf = TransferFunction.grayscale_ramp()
    return data, cam, tf


def des_composite_run(scene, nprocs, m):
    """Run ONLY the compositing phase functionally; return (elapsed, messages)."""
    data, cam, tf = scene
    dec = BlockDecomposition(GRID, nprocs)
    sched = schedule_from_geometry(dec, cam, m)

    partials = []
    for r in range(nprocs):
        b = dec.block(r)
        rs, rc, gl = b.ghost_read(GRID, ghost=1)
        sub = data[rs[0] : rs[0] + rc[0], rs[1] : rs[1] + rc[1], rs[2] : rs[2] + rc[2]]
        partials.append(render_block(cam, VolumeBlock(sub, GRID, b.start, b.count, gl), tf, 0.8))

    def program(ctx):
        tile = yield from direct_send_compose(ctx, partials[ctx.rank], sched)
        return tile is not None

    world = MPIWorld.for_cores(nprocs)
    res = world.run(program)
    return res.elapsed_s, res.messages, sched


class TestScheduleConsistency:
    @pytest.mark.parametrize("nprocs,m", [(8, 8), (16, 16), (16, 4), (64, 8)])
    def test_des_messages_equal_schedule_minus_self_sends(self, scene, nprocs, m):
        _elapsed, messages, sched = des_composite_run(scene, nprocs, m)
        self_sends = sum(1 for msg in sched.messages if msg.src == msg.tile)
        assert messages == sched.total_messages - self_sends


class TestOrderingConsistency:
    def test_model_and_des_agree_on_bytes_moved(self, scene):
        """Fewer compositors -> fewer wire bytes, in both worlds."""
        _data, cam, _tf = scene
        model = CompositeTimeModel()
        dec = BlockDecomposition(GRID, 16)
        priced = {
            m: model.price(schedule_from_geometry(dec, cam, m)) for m in (16, 4)
        }
        assert priced[4].total_bytes < priced[16].total_bytes

        des_bytes = {}
        for m in (16, 4):
            world_run = des_composite_run(scene, 16, m)
            des_bytes[m] = world_run[1]
        assert des_bytes[4] < des_bytes[16]

    def test_payload_sizes_match_schedule_estimate(self, scene):
        """The schedule's pixel-derived sizes bound the real cropped
        partial images (footprints are conservative bboxes)."""
        data, cam, tf = scene
        nprocs = 8
        dec = BlockDecomposition(GRID, nprocs)
        sched = schedule_from_geometry(dec, cam, nprocs)
        for r in range(nprocs):
            b = dec.block(r)
            rs, rc, gl = b.ghost_read(GRID, ghost=1)
            sub = data[rs[0] : rs[0] + rc[0], rs[1] : rs[1] + rc[1], rs[2] : rs[2] + rc[2]]
            partial = render_block(cam, VolumeBlock(sub, GRID, b.start, b.count, gl), tf, 0.8)
            if partial is None:
                continue
            for msg in sched.outgoing(r):
                piece = partial.crop(sched.tiles.tile(msg.tile))
                assert isinstance(piece, PartialImage)
                assert piece.rect[2] * piece.rect[3] <= msg.pixels
