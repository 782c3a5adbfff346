"""The render contract: bit-for-bit equality with the frozen kernel.

``_kernels.py`` holds a verbatim copy of the ray caster as it stood
when this file was committed.  Every test here renders the same input
through ``repro.render`` and through that copy and compares *bytes* —
``rgba.tobytes()``, ``samples``, ``rect``, ``depth`` for images, every
array field for ray plans (index values, and the bytes of the float32
geometry the kernel reads; see ``_assert_same_plan``).  A host-time
optimisation of the kernel must keep all of them green without editing
either file; a change that cannot is a model change and has to be
declared as one.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _kernels import _MAX_CHUNK, frozen_build_ray_plan, frozen_render_block
from repro.core.plan import FramePlanCache, block_world_bounds
from repro.data.synthetic import SupernovaModel
from repro.render.camera import Camera
from repro.render.decomposition import BlockDecomposition
from repro.render.raycast import build_ray_plan, render_block
from repro.render.transfer import TransferFunction
from repro.render.volume import VolumeBlock

PROJECTIONS = ("perspective", "orthographic")
TRANSFERS = {
    "supernova": lambda: TransferFunction.supernova(-1.0, 1.0),
    "grayscale": lambda: TransferFunction.grayscale_ramp(-1.0, 1.0),
}


def _camera(shape, projection, width, height, azimuth=33.0, elevation=21.0):
    cam = Camera.looking_at_volume(
        shape, width=width, height=height, azimuth_deg=azimuth, elevation_deg=elevation
    )
    if projection == "orthographic":
        cam = Camera(
            tuple(cam.eye), tuple(cam.center), width=width, height=height, orthographic=True
        )
    return cam


@functools.lru_cache(maxsize=None)
def _field(n):
    field = SupernovaModel((n, n, n), seed=7, time=0.5).field("vx")
    field.setflags(write=False)  # shared between tests
    return field


def _blocks(field, nblocks, ghost):
    grid = field.shape
    out = []
    for b in BlockDecomposition(grid, nblocks).blocks():
        rs, rc, gl = b.ghost_read(grid, ghost)
        data = field[rs[0]:rs[0] + rc[0], rs[1]:rs[1] + rc[1], rs[2]:rs[2] + rc[2]]
        out.append(VolumeBlock(data, grid, b.start, b.count, gl))
    return out


def _assert_same_image(live, frozen):
    if frozen is None:
        assert live is None
        return
    assert live is not None
    assert live.rect == frozen.rect
    assert live.samples == frozen.samples
    assert live.depth == frozen.depth
    assert live.rgba.dtype == frozen.rgba.dtype
    assert live.rgba.shape == frozen.rgba.shape
    assert live.rgba.tobytes() == frozen.rgba.tobytes()


def _assert_same_plan(live, frozen):
    """The live plan is the frozen one in the kernel's form: the same
    index values (int32 when they fit with a window of headroom, int64
    otherwise) and the bytes of the float64 -> float32 cast of every
    geometry row, a shared ``(3, 1)`` column standing for all of them."""
    if frozen is None:
        assert live is None
        return
    assert live is not None
    assert live.rect == frozen.rect
    assert live.depth == frozen.depth
    assert live.step == frozen.step
    assert (live.k_min, live.k_max) == (frozen.k_min, frozen.k_max)
    _x0, _y0, w, h = frozen.rect
    k_dtype = np.int32 if frozen.k_max + _MAX_CHUNK < 2**31 else np.int64
    dtypes = {"pix": np.int32 if w * h < 2**31 else np.int64, "k_lo": k_dtype, "k_hi": k_dtype}
    for name, dtype in dtypes.items():
        a, b = getattr(live, name), getattr(frozen, name)
        assert a.dtype == dtype, name
        assert a.shape == b.shape, name
        assert np.array_equal(a, b), name
    for name in ("origins", "dirs"):
        a, b = getattr(live, name), getattr(frozen, name).astype(np.float32).T
        assert a.dtype == np.float32, name
        assert a.shape in ((3, 1), b.shape), name
        assert np.broadcast_to(a, b.shape).tobytes() == b.tobytes(), name


def _both(camera, block, tf, **kw):
    return render_block(camera, block, tf, **kw), frozen_render_block(camera, block, tf, **kw)


@pytest.mark.parametrize("tf_name", sorted(TRANSFERS))
@pytest.mark.parametrize("step", [1.0, 0.5])
@pytest.mark.parametrize("et", [0.999, 0.9, 1.0])
@pytest.mark.parametrize("projection", PROJECTIONS)
class TestRenderBlockBitwise:
    @pytest.mark.parametrize("ghost", [0, 1])
    def test_eight_block_decompositions(self, projection, ghost, et, step, tf_name):
        # The e2e geometry in small: one padded window per block, most
        # of its slots past some ray's exit.
        tf = TRANSFERS[tf_name]()
        for n in (32, 48):
            field = _field(n)
            cam = _camera(field.shape, projection, 56, 48)
            for block in _blocks(field, 8, ghost):
                live, frozen = _both(cam, block, tf, step=step, early_termination=et)
                _assert_same_image(live, frozen)

    def test_whole_volume_multi_window(self, projection, et, step, tf_name):
        # Enough rays that the window is narrower than the longest
        # chord: several windows with compaction between them.
        tf = TRANSFERS[tf_name]()
        field = _field(40)
        cam = _camera(field.shape, projection, 160, 128)
        live, frozen = _both(
            cam, VolumeBlock.whole(field), tf, step=step, early_termination=et
        )
        assert frozen is not None and frozen.samples > 0
        _assert_same_image(live, frozen)


@pytest.mark.parametrize("projection", PROJECTIONS)
def test_minimum_window_width(projection):
    # More than 2**17 live rays: the window clamps to its floor of 4.
    field = _field(12)
    cam = _camera(field.shape, projection, 420, 420)
    block = VolumeBlock.whole(field)
    plan = frozen_build_ray_plan(cam, block.world_lo, block.world_hi, 1.0)
    assert plan.num_rays > (1 << 17)
    live, frozen = _both(cam, block, TRANSFERS["supernova"]())
    _assert_same_image(live, frozen)


@pytest.mark.parametrize("projection", PROJECTIONS)
def test_degenerate_thin_block(projection):
    # One voxel thick: the float32 sampler falls back to the clamped
    # float64 corner logic.  As a whole volume the slab has no depth;
    # as a ghost-less one-layer block of a thicker grid it renders.
    data = np.linspace(-1.0, 1.0, 35, dtype=np.float32).reshape(5, 1, 7)
    grid = (5, 3, 7)
    cam = _camera(grid, projection, 24, 24)
    layer = VolumeBlock(data, grid, (0, 1, 0), (5, 1, 7))
    for tf_name in sorted(TRANSFERS):
        tf = TRANSFERS[tf_name]()
        _assert_same_image(*_both(cam, VolumeBlock.whole(data), tf, step=0.5))
        live, frozen = _both(cam, layer, tf, step=0.5)
        assert frozen is not None and frozen.samples > 0
        _assert_same_image(live, frozen)


@pytest.mark.parametrize("projection", PROJECTIONS)
def test_nan_and_inf_voxels_bin_like_nan_to_num(projection):
    # Failed simulations write NaN/inf; the frozen lookup sends NaN and
    # -inf to bin 0 and +inf to bin 1023, and interpolation next to
    # such a voxel produces all three.
    field = _field(16).copy()
    field[3, 4, 5] = np.nan
    field[8, 8, 8] = np.inf
    field[12, 3, 9] = -np.inf
    field[5:7, 10:12, 2:4] = np.nan
    field[10, 10:13, 10:13] = np.inf
    cam = _camera(field.shape, projection, 64, 56)
    tf = TRANSFERS["supernova"]()
    with np.errstate(invalid="ignore"):
        for et in (0.999, 1.0):
            live, frozen = _both(cam, VolumeBlock.whole(field), tf, early_termination=et)
            assert frozen is not None
            _assert_same_image(live, frozen)
            for block in _blocks(field, 8, 1):
                _assert_same_image(*_both(cam, block, tf, early_termination=et))


@pytest.mark.parametrize("projection", PROJECTIONS)
def test_planned_equals_unplanned(projection):
    field = _field(24)
    cam = _camera(field.shape, projection, 72, 64)
    tf = TRANSFERS["supernova"]()
    for block in _blocks(field, 8, 1):
        for step in (1.0, 0.5):
            frozen = frozen_render_block(cam, block, tf, step=step)
            live_plan = build_ray_plan(cam, block.world_lo, block.world_hi, step)
            _assert_same_image(render_block(cam, block, tf, step=step), frozen)
            _assert_same_image(render_block(cam, block, tf, step=step, plan=live_plan), frozen)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.tuples(*[st.integers(min_value=1, max_value=13)] * 3),
    st.sampled_from(PROJECTIONS),
    st.floats(min_value=-170, max_value=170),
    st.floats(min_value=-75, max_value=75),
    st.floats(min_value=0.3, max_value=1.6),
    st.floats(min_value=0.5, max_value=1.0),
)
def test_random_shapes_cameras_steps_thresholds(
    seed, shape, projection, azimuth, elevation, step, et
):
    rng = np.random.default_rng(seed)
    data = rng.random(shape).astype(np.float32) * 2.0 - 1.0
    cam = _camera(shape, projection, 36, 30, azimuth, elevation)
    tf = TRANSFERS["supernova" if seed % 2 else "grayscale"]()
    live, frozen = _both(cam, VolumeBlock.whole(data), tf, step=step, early_termination=et)
    _assert_same_image(live, frozen)


class TestRayPlanBitwise:
    @pytest.mark.parametrize("step", [1.0, 0.5, 0.37])
    @pytest.mark.parametrize("projection", PROJECTIONS)
    def test_block_plans(self, projection, step):
        grid = (32, 32, 32)
        cam = _camera(grid, projection, 80, 72)
        for b in BlockDecomposition(grid, 8).blocks():
            lo, hi = block_world_bounds(b, grid)
            _assert_same_plan(
                build_ray_plan(cam, lo, hi, step), frozen_build_ray_plan(cam, lo, hi, step)
            )

    @pytest.mark.parametrize("orthographic", [False, True])
    def test_axis_parallel_directions(self, orthographic):
        # Looking straight down -z: every orthographic ray, and the
        # centre column/row of an odd-sized perspective image, has zero
        # direction components — the slab test's special case.
        cam = Camera(
            (7.5, 7.5, 60.0), (7.5, 7.5, 7.5), up=(0.0, 1.0, 0.0),
            width=31, height=29, orthographic=orthographic,
            ortho_height=24.0 if orthographic else None,
        )
        lo = np.array([0.0, 0.0, 0.0])
        live = build_ray_plan(cam, lo, np.array([15.0, 15.0, 15.0]), 1.0)
        frozen = frozen_build_ray_plan(cam, lo, np.array([15.0, 15.0, 15.0]), 1.0)
        assert frozen is not None and np.any(frozen.dirs == 0.0)
        _assert_same_plan(live, frozen)
        # A box the parallel rays partly miss: origins outside a slab.
        off_lo, off_hi = np.array([9.0, 2.0, 1.0]), np.array([15.0, 6.0, 9.0])
        _assert_same_plan(
            build_ray_plan(cam, off_lo, off_hi, 0.5),
            frozen_build_ray_plan(cam, off_lo, off_hi, 0.5),
        )

    @pytest.mark.parametrize("projection", PROJECTIONS)
    def test_off_screen_and_clipped_boxes(self, projection):
        cam = _camera((16, 16, 16), projection, 40, 32)
        far = np.array([500.0, 500.0, 500.0])
        assert frozen_build_ray_plan(cam, far, far + 4.0, 1.0) is None
        assert build_ray_plan(cam, far, far + 4.0, 1.0) is None
        # Twice the framed volume: the footprint clips to the image.
        lo, hi = np.array([-8.0, -8.0, -8.0]), np.array([24.0, 24.0, 24.0])
        _assert_same_plan(
            build_ray_plan(cam, lo, hi, 1.0), frozen_build_ray_plan(cam, lo, hi, 1.0)
        )

    @pytest.mark.parametrize("projection", PROJECTIONS)
    def test_frame_plan_cache_builds_the_same_plans(self, projection):
        grid = (24, 24, 24)
        cam = _camera(grid, projection, 64, 56)
        plan = FramePlanCache().plan_for(cam, grid, 8, 1.0, 1, "io", 8)
        for b, live in zip(plan.decomposition.blocks(), plan.ray_plans):
            lo, hi = block_world_bounds(b, grid)
            _assert_same_plan(live, frozen_build_ray_plan(cam, lo, hi, 1.0))
