"""Cross-module integration: full frames across formats, policies,
compositing algorithms, and views, all against the serial oracle."""

import numpy as np
import pytest

from repro.compositing.binaryswap import binary_swap_compose
from repro.compositing.policy import IDENTITY_POLICY, fixed_policy
from repro.compositing.radixk import radix_k_gather
from repro.core import ParallelVolumeRenderer
from repro.data import SupernovaModel, write_vh1_netcdf
from repro.pio import IOHints, NetCDFHandle
from repro.render import (
    BlockDecomposition,
    Camera,
    TransferFunction,
    VolumeBlock,
    render_block,
    render_volume_serial,
)
from repro.render.image import image_to_ppm
from repro.vmpi import MPIWorld

GRID = (20, 20, 20)
STEP = 0.9


@pytest.fixture(scope="module")
def model():
    return SupernovaModel(GRID, seed=21, time=0.5)


@pytest.fixture(scope="module")
def nc(model):
    return write_vh1_netcdf(model)


@pytest.mark.parametrize("variable", ("vx", "density", "pressure"))
def test_any_variable_renders(model, nc, variable):
    cam = Camera.looking_at_volume(GRID, width=32, height=32)
    tf = TransferFunction.supernova(*model.value_range(variable))
    handle = NetCDFHandle(nc, variable)
    world = MPIWorld.for_cores(8)
    pvr = ParallelVolumeRenderer(world, cam, tf, step=STEP, hints=IOHints(cb_buffer_size=2048, cb_nodes=2))
    res = pvr.render_frame(handle)
    ref = render_volume_serial(cam, model.field(variable), tf, step=STEP)
    assert np.abs(res.image - ref).max() < 5e-3


@pytest.mark.parametrize("azimuth", (-60, 0, 45, 120))
def test_views_around_the_volume(model, nc, azimuth):
    cam = Camera.looking_at_volume(GRID, width=28, height=28, azimuth_deg=azimuth)
    tf = TransferFunction.supernova(*model.value_range("vx"))
    handle = NetCDFHandle(nc, "vx")
    pvr = ParallelVolumeRenderer(MPIWorld.for_cores(8), cam, tf, step=STEP)
    res = pvr.render_frame(handle)
    ref = render_volume_serial(cam, model.field("vx"), tf, step=STEP)
    assert np.abs(res.image - ref).max() < 5e-3


def test_direct_send_and_binary_swap_agree(model):
    """The two compositing algorithms produce the same image."""
    cam = Camera.looking_at_volume(GRID, width=32, height=32)
    tf = TransferFunction.grayscale_ramp(0, 1.6)
    data = model.field("pressure")
    dec = BlockDecomposition(GRID, 8, block_grid=(2, 2, 2))

    def make_partial(rank):
        b = dec.block(rank)
        rs, rc, gl = b.ghost_read(GRID, ghost=1)
        sub = data[rs[0] : rs[0] + rc[0], rs[1] : rs[1] + rc[1], rs[2] : rs[2] + rc[2]]
        return render_block(cam, VolumeBlock(sub, GRID, b.start, b.count, gl), tf, step=STEP)

    def bs_program(ctx):
        partial = make_partial(ctx.rank)
        region, img = yield from binary_swap_compose(ctx, partial, dec, cam)
        return (yield from radix_k_gather(ctx, region, img, 32, 32, root=0))

    bs = MPIWorld.for_cores(8).run(bs_program)[0]

    from repro.compositing.directsend import assemble_final_image, direct_send_compose
    from repro.compositing.schedule import schedule_from_geometry

    sched = schedule_from_geometry(dec, cam, 8)

    def ds_program(ctx):
        partial = make_partial(ctx.rank)
        tile = yield from direct_send_compose(ctx, partial, sched)
        return (yield from assemble_final_image(ctx, tile, sched, root=0))

    ds = MPIWorld.for_cores(8).run(ds_program)[0]
    assert np.allclose(bs, ds, atol=1e-5)


def test_policies_change_time_not_pixels(model, nc):
    cam = Camera.looking_at_volume(GRID, width=24, height=24)
    tf = TransferFunction.supernova(*model.value_range("vx"))
    handle = NetCDFHandle(nc, "vx")
    images = {}
    timings = {}
    for name, policy in [("all", IDENTITY_POLICY), ("two", fixed_policy(2))]:
        pvr = ParallelVolumeRenderer(MPIWorld.for_cores(8), cam, tf, step=STEP, policy=policy)
        res = pvr.render_frame(handle)
        images[name] = res.image
        timings[name] = res.timing
    assert np.allclose(images["all"], images["two"], atol=1e-5)
    assert timings["all"].composite_s != timings["two"].composite_s


def test_ppm_export(model, nc, tmp_path):
    cam = Camera.looking_at_volume(GRID, width=24, height=20)
    tf = TransferFunction.supernova(*model.value_range("vx"))
    pvr = ParallelVolumeRenderer(MPIWorld.for_cores(4), cam, tf, step=STEP)
    res = pvr.render_frame(NetCDFHandle(nc, "vx"))
    ppm = image_to_ppm(res.image)
    assert ppm.startswith(b"P6\n24 20\n255\n")
    assert len(ppm) == len(b"P6\n24 20\n255\n") + 24 * 20 * 3
    (tmp_path / "img.ppm").write_bytes(ppm)


def test_upsampled_timestep_end_to_end(model):
    """The paper's 2x upsampling feeds the same pipeline."""
    from repro.data.upsample import upsample_trilinear
    from repro.formats.raw import RawVolume
    from repro.pio.reader import RawHandle

    up = upsample_trilinear(model.field("vx"), 2)
    handle = RawHandle(RawVolume.write(up))
    cam = Camera.looking_at_volume(up.shape, width=32, height=32)
    tf = TransferFunction.supernova(*model.value_range("vx"))
    pvr = ParallelVolumeRenderer(MPIWorld.for_cores(8), cam, tf, step=1.2)
    res = pvr.render_frame(handle)
    ref = render_volume_serial(cam, up, tf, step=1.2)
    assert np.abs(res.image - ref).max() < 5e-3


def test_sixty_four_rank_frame(model, nc):
    """A larger functional run: 64 ranks, compositor-limited to 16."""
    from repro.compositing.policy import fixed_policy

    cam = Camera.looking_at_volume(GRID, width=48, height=48)
    tf = TransferFunction.supernova(*model.value_range("vx"))
    pvr = ParallelVolumeRenderer(
        MPIWorld.for_cores(64), cam, tf, step=STEP, policy=fixed_policy(16),
        hints=IOHints(cb_buffer_size=4096, cb_nodes=4),
    )
    res = pvr.render_frame(NetCDFHandle(nc, "vx"))
    ref = render_volume_serial(cam, model.field("vx"), tf, step=STEP)
    assert np.abs(res.image - ref).max() < 5e-3
    assert res.num_compositors == 16
    assert res.schedule.num_renderers == 64
