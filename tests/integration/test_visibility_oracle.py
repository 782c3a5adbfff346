"""Every exact compositor on every execution path against the whole volume.

The pixel oracle is ``render_volume_serial`` over the whole volume: one
ray march, no partials, no blending order.  ``serial_compose`` is not
used as an oracle here — it sorts partials by the same
``Camera.visibility_key`` the compositors do, so it would share any bug
in that order.  The views aim at where a per-piece order can break:
uneven bricks (3, 5 and 12 blocks over prime grid dimensions), an
axis-aligned orthographic view, an eye within half a cell of a cut
plane, an eye inside the volume, and an eye inside one axis's span.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.compositing.backends import get_backend
from repro.core import ParallelVolumeRenderer, PipelinedTimeSeriesRenderer
from repro.fault import FaultPlan, NodeCrash
from repro.formats.raw import RawVolume
from repro.pio import RawHandle
from repro.progressive.renderer import ProgressiveRenderer
from repro.render import Camera, TransferFunction
from repro.render.decomposition import BlockDecomposition
from repro.render.raycast import render_volume_serial
from repro.utils.errors import ConfigError
from repro.vmpi import MPIWorld, ParallelConfig

#: The render tests' image tolerance: rays stop at opacity 0.999, and
#: where they stop depends on the block boundaries they cross.
IMAGE_TOL = 5e-3
EXACT = ("directsend", "dfb", "puzzlepiece", "radixk", "binaryswap", "serial")
ENGINES = {"monolith": None, "w1": ParallelConfig(workers=1), "w2": ParallelConfig(workers=2)}
SIZE = 20
TF = TransferFunction.grayscale_ramp()
#: A dozen drawn views in tier-1 (the derandomised profile); the explore
#: profile's budget everywhere else.
VIEWS = 12 if settings.default.derandomize else settings.default.max_examples


def _field(grid, seed):
    return np.random.default_rng(seed).random(grid).astype(np.float32)


def _admits(name, nprocs, grid, parallel=None, failover=False):
    try:
        get_backend(name).validate(
            nprocs, BlockDecomposition(grid, nprocs), parallel=parallel, failover=failover
        )
    except ConfigError:
        return False
    return True


def _renderer(cam, nprocs, name, step, parallel=None, fault=None):
    return ParallelVolumeRenderer(
        MPIWorld.for_cores(nprocs), cam, TF, step=step,
        compositor=name, parallel=parallel, fault=fault,
    )


def _assert_matches(image, cam, field, step):
    ref = render_volume_serial(cam, field, TF, step=step)
    assert np.abs(image - ref).max() < IMAGE_TOL


class TestEveryBackendEveryView:
    @settings(max_examples=VIEWS, deadline=None)
    @given(
        st.tuples(*[st.integers(min_value=5, max_value=13)] * 3),
        st.sampled_from([2, 3, 5, 8, 12]),
        st.tuples(*[st.floats(min_value=-1.5, max_value=2.5)] * 3),
        st.floats(min_value=25.0, max_value=70.0),
        st.booleans(),
        st.floats(min_value=0.5, max_value=1.2),
    )
    # Uneven bricks over prime dimensions.
    @example((7, 11, 13), 3, (0.9, 1.8, 2.2), 30.0, False, 0.8)
    @example((11, 13, 7), 5, (-0.6, 0.3, 2.0), 40.0, False, 0.7)
    @example((13, 11, 13), 12, (1.7, -0.4, 1.9), 35.0, False, 0.9)
    # Axis-aligned orthographic: rays parallel to z.
    @example((13, 13, 11), 8, (0.5, 0.5, 3.0), 30.0, True, 0.8)
    # The eye within half a cell of the x cut of 13 nodes into 2 blocks
    # (world x = 6).
    @example((13, 13, 13), 2, (6.3 / 12, 0.45, 2.4), 35.0, False, 0.8)
    # The eye inside the volume, and inside the x span only.
    @example((11, 13, 7), 8, (0.35, 0.6, 0.55), 70.0, False, 0.6)
    @example((13, 11, 13), 12, (0.4, 2.2, -1.3), 35.0, False, 0.8)
    def test_flat_frame_matches_whole_volume(self, grid, nblocks, eye_frac, fov, ortho, step):
        assume(all(n >= b for n, b in zip(grid, BlockDecomposition(grid, nblocks).block_grid)))
        nz, ny, nx = grid
        center = np.array([nx - 1, ny - 1, nz - 1]) / 2.0
        eye = np.array(eye_frac) * [nx - 1, ny - 1, nz - 1]
        look = center - eye
        assume(np.linalg.norm(look) > 0.5 and abs(look[1]) < 0.95 * np.linalg.norm(look))
        cam = Camera(tuple(eye), tuple(center), fov_deg=fov, width=SIZE, height=SIZE,
                     orthographic=ortho)
        field = _field(grid, nblocks)
        handle = RawHandle(RawVolume.write(field))
        for name in EXACT:
            if _admits(name, nblocks, grid):
                image = _renderer(cam, nblocks, name, step).render_frame(handle).image
                _assert_matches(image, cam, field, step)


# The matrix view: 8 uneven bricks, the eye inside the volume and 0.1
# from the x cut (world x = 4).
GRID = (11, 13, 7)
CAM = Camera((3.9, 5.6, 2.5), (3.8, 1.3, 6.9), fov_deg=70.0, width=SIZE, height=SIZE)
STEP = 0.7
FIELDS = [_field(GRID, seed) for seed in (1, 2)]


def _flat(renderer):
    return [(renderer.render_frame(RawHandle(RawVolume.write(FIELDS[0]))).image, FIELDS[0])]


def _pipelined(renderer):
    handles = [RawHandle(RawVolume.write(f)) for f in FIELDS]
    res = PipelinedTimeSeriesRenderer(renderer, prefetch_depth=1).render(handles)
    return list(zip(res.images, FIELDS, strict=True))


def _progressive(renderer):
    res = ProgressiveRenderer(renderer, levels=2).render_ladder(
        RawHandle(RawVolume.write(FIELDS[0])), field=FIELDS[0]
    )
    return [(res.final.image, FIELDS[0])]


PATHS = {"flat": _flat, "pipelined": _pipelined, "progressive": _progressive}


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize(
    "name,engine",
    [(n, e) for n in EXACT for e in sorted(ENGINES) if _admits(n, 8, GRID, ENGINES[e])],
)
def test_backend_engine_path_matrix(name, engine, path):
    for image, field in PATHS[path](_renderer(CAM, 8, name, STEP, ENGINES[engine])):
        _assert_matches(image, CAM, field, STEP)


@pytest.mark.parametrize("name", [n for n in EXACT if _admits(n, 8, GRID, failover=True)])
def test_node_crash_failover_keeps_the_image(name):
    """Node 1 dies during the read; its blocks hold only zeros, so the
    image loses nothing, and the failover's recovered tiles must blend
    the survivors' pieces in the same order as everyone else."""
    dead = (1, 3, 5, 7)  # node 1's ranks in VN mode
    field = FIELDS[0].copy()
    dec = BlockDecomposition(GRID, 8)
    for rank in dead:
        b = dec.block(rank)
        field[tuple(slice(s, e) for s, e in zip(b.start, b.stop))] = 0.0
    fault = FaultPlan(node_crashes=(NodeCrash(1.0, 1),), seed=7)
    res = _renderer(CAM, 8, name, STEP, fault=fault).render_frame(
        RawHandle(RawVolume.write(field))
    )
    assert res.fault.dead_ranks == dead and res.fault.recoveries > 0
    _assert_matches(res.image, CAM, field, STEP)
