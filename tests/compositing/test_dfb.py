"""Distributed FrameBuffer: exactness and overlap.

DFB reuses the direct-send schedule as its tile-ownership map, so the
pixels (and the message/byte totals) must match direct-send exactly;
what it buys is *time* — pieces enter the wire while later rays still
march, so compositing partially hides inside the render stage.

Failover is one protocol shared with direct-send; it is pinned for both
backends in ``tests/fault/test_failover.py::TestTileFailover``.
"""

import numpy as np
import pytest

from repro.compositing.dfb import dfb_compose
from repro.compositing.directsend import assemble_final_image, direct_send_compose
from repro.compositing.schedule import schedule_from_geometry
from repro.obs import Tracer
from repro.render.camera import Camera
from repro.render.decomposition import BlockDecomposition
from repro.render.raycast import render_block
from repro.render.transfer import TransferFunction
from repro.render.volume import VolumeBlock
from repro.vmpi import MPIWorld

GRID = (16, 16, 16)
W, H = 48, 40
STEP = 0.7
RENDER_S = 0.01  # a real march time so overlap is measurable


@pytest.fixture(scope="module")
def scene():
    rng = np.random.default_rng(42)
    data = rng.random(GRID).astype(np.float32)
    cam = Camera.looking_at_volume(GRID, width=W, height=H, azimuth_deg=25, elevation_deg=30)
    return data, cam, TransferFunction.grayscale_ramp()


def make_partial(rank, dec, scene):
    data, cam, tf = scene
    b = dec.block(rank)
    rs, rc, gl = b.ghost_read(GRID, ghost=1)
    sub = data[rs[0]: rs[0] + rc[0], rs[1]: rs[1] + rc[1], rs[2]: rs[2] + rc[2]]
    return render_block(cam, VolumeBlock(sub, GRID, b.start, b.count, gl), tf, step=STEP)


def run_directsend(nprocs, m, scene, tracer=None):
    _data, cam, _tf = scene
    dec = BlockDecomposition(GRID, nprocs)
    sched = schedule_from_geometry(dec, cam, m)

    def program(ctx):
        partial = make_partial(ctx.rank, dec, scene)
        t0 = ctx.now
        yield from ctx.compute(RENDER_S)
        if ctx.tracer is not None:
            ctx.tracer.stage(ctx.rank, "render", t0, ctx.now)
        t1 = ctx.now
        tile = yield from direct_send_compose(ctx, partial, sched)
        final = yield from assemble_final_image(ctx, tile, sched, root=0)
        if ctx.tracer is not None:
            ctx.tracer.stage(ctx.rank, "composite", t1, ctx.now)
        return final

    world = MPIWorld.for_cores(nprocs)
    world.tracer = tracer
    return world.run(program)


def run_dfb(nprocs, m, scene, tracer=None):
    _data, cam, _tf = scene
    dec = BlockDecomposition(GRID, nprocs)
    sched = schedule_from_geometry(dec, cam, m)

    def program(ctx):
        partial = make_partial(ctx.rank, dec, scene)
        return (yield from dfb_compose(ctx, partial, sched, RENDER_S))

    world = MPIWorld.for_cores(nprocs)
    world.tracer = tracer
    return world.run(program)


class TestDFBExactness:
    @pytest.mark.parametrize("nprocs,m", [(4, 4), (8, 8), (8, 3), (16, 4)])
    def test_bitwise_matches_directsend(self, nprocs, m, scene):
        ds = run_directsend(nprocs, m, scene)
        dfb = run_dfb(nprocs, m, scene)
        assert np.array_equal(ds[0], dfb[0])
        assert dfb.messages == ds.messages
        assert dfb.bytes_sent == ds.bytes_sent

    def test_offscreen_partial_still_satisfies_schedule(self, scene):
        _data, cam, _tf = scene
        dec = BlockDecomposition(GRID, 8)
        sched = schedule_from_geometry(dec, cam, 4)

        def program(ctx):
            partial = make_partial(ctx.rank, dec, scene) if ctx.rank != 3 else None
            return (yield from dfb_compose(ctx, partial, sched, RENDER_S))

        res = MPIWorld.for_cores(8).run(program)
        assert res[0] is not None


class TestDFBOverlap:
    def test_compositing_hides_inside_render(self, scene):
        """Pieces travel during the march: the frame finishes earlier
        and the post-render composite window shrinks."""
        ds = run_directsend(8, 8, scene)
        dfb = run_dfb(8, 8, scene)
        assert dfb.elapsed_s < ds.elapsed_s

    def test_pieces_arrive_during_the_march(self, scene):
        """Both paths record one 'recv piece' span per piece (posting
        the receive -> piece landing = compositor wait).  Under DFB the
        pieces traveled while rays still marched, so the owners' total
        wait collapses compared to direct-send."""
        ds_tr = Tracer(enabled=True)
        run_directsend(8, 8, scene, tracer=ds_tr)
        dfb_tr = Tracer(enabled=True)
        run_dfb(8, 8, scene, tracer=dfb_tr)
        ds_recvs = [s for s in ds_tr.spans if s.name == "recv piece"]
        dfb_recvs = [s for s in dfb_tr.spans if s.name == "recv piece"]
        assert len(ds_recvs) == len(dfb_recvs) > 0  # same schedule, same spans
        ds_wait = sum(s.t1 - s.t0 for s in ds_recvs)
        dfb_wait = sum(s.t1 - s.t0 for s in dfb_recvs)
        assert dfb_wait < ds_wait
        # The render stage still spans the whole chunked march.
        assert dfb_tr.stage_maxima()["render"] >= RENDER_S

    def test_stage_spans_cover_both_stages(self, scene):
        tracer = Tracer(enabled=True)
        run_dfb(8, 8, scene, tracer=tracer)
        stages = tracer.stage_maxima()
        assert stages["render"] > 0 and stages["composite"] > 0
