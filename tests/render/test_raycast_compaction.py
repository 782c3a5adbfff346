"""Property tests: the compacted kernel against the reference kernel.

:func:`render_block` marches with active-ray compaction, chunked
batches, and float32 accumulation; ``render_block_reference`` (kept
beside these tests in ``_kernels.py``) is the plain per-sample-index
float64 loop it replaced.  Global sample
alignment guarantees both compute the same integral; these tests pin
that equivalence across random cameras, block shapes, steps, and
early-termination thresholds.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from _kernels import render_block_reference
from repro.render.camera import Camera
from repro.render.raycast import build_ray_plan, ray_box_intersect, render_block
from repro.render.transfer import TransferFunction
from repro.render.volume import VolumeBlock

# The compacted kernel samples in float32 (the reference in float64),
# so a value landing on a transfer-function bin edge may fall one bin
# either way; one flipped bin moves the pixel by at most one sample's
# contribution.  The threshold below that budget still catches any
# *structural* divergence (wrong sample positions, masking, ordering).
TOL_REF = 5e-3
# With early termination active a flipped bin can also shift the
# termination point by a sample, compounding to a few samples'
# contribution on the affected pixel — still far below any structural
# divergence, but above the single-flip budget.
TOL_REF_ET = 2.5e-2


def _case(seed, azimuth, elevation, width=36, height=30):
    rng = np.random.default_rng(seed)
    shape = tuple(int(rng.integers(5, 17)) for _ in range(3))
    data = rng.random(shape).astype(np.float32) * 2.0 - 1.0
    cam = Camera.looking_at_volume(
        shape, width=width, height=height, azimuth_deg=azimuth, elevation_deg=elevation
    )
    tf = TransferFunction.supernova(-1.0, 1.0)
    return VolumeBlock.whole(data), cam, tf


def _assert_equivalent(p_new, p_ref, tol=TOL_REF):
    if p_new is None or p_ref is None:
        # One side rendered nothing: the other may differ only by a
        # below-tolerance residue (bin-edge flips near zero opacity).
        other = p_new or p_ref
        assert other is None or np.abs(other.rgba).max() < tol
        return
    assert p_new.rect == p_ref.rect
    assert p_new.depth == p_ref.depth
    assert np.abs(p_new.rgba - p_ref.rgba).max() < tol


class TestCompactedEqualsReference:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=-170, max_value=170),
        st.floats(min_value=-75, max_value=75),
        st.floats(min_value=0.3, max_value=1.6),
        st.sampled_from([0.95, 0.999, 1.0]),
    )
    def test_random_blocks_views_steps(self, seed, azimuth, elevation, step, et):
        block, cam, tf = _case(seed, azimuth, elevation)
        p_new = render_block(cam, block, tf, step=step, early_termination=et)
        p_ref = render_block_reference(cam, block, tf, step=step, early_termination=et)
        _assert_equivalent(p_new, p_ref, tol=TOL_REF if et == 1.0 else TOL_REF_ET)

    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=0.3, max_value=1.6),
    )
    def test_sample_counts_match_without_early_termination(self, seed, step):
        # With early termination off, both kernels must take *exactly*
        # the same samples — any drift means the globally aligned
        # sample-index bounds disagree.
        block, cam, tf = _case(seed, 25.0, 15.0)
        p_new = render_block(cam, block, tf, step=step, early_termination=1.0)
        p_ref = render_block_reference(cam, block, tf, step=step, early_termination=1.0)
        if p_new is None or p_ref is None:
            _assert_equivalent(p_new, p_ref)
            return
        assert p_new.samples == p_ref.samples

    def test_degenerate_thin_block(self):
        data = np.zeros((5, 1, 7), np.float32)
        data[:] = 0.8
        cam = Camera.looking_at_volume(data.shape, width=24, height=24)
        tf = TransferFunction.grayscale_ramp(-1.0, 1.0)
        p_new = render_block(cam, VolumeBlock.whole(data), tf, step=0.5)
        p_ref = render_block_reference(cam, VolumeBlock.whole(data), tf, step=0.5)
        _assert_equivalent(p_new, p_ref)


class TestRayPlanReuse:
    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=-170, max_value=170),
        st.floats(min_value=0.4, max_value=1.4),
    )
    def test_planned_render_is_bitwise_identical(self, seed, azimuth, step):
        # A precomputed RayPlan must not change the result at all: the
        # plan carries the same geometry the kernel would derive, so
        # planned and unplanned renders follow one code path.
        block, cam, tf = _case(seed, azimuth, 20.0)
        plan = build_ray_plan(cam, block.world_lo, block.world_hi, step)
        p_cold = render_block(cam, block, tf, step=step)
        p_warm = render_block(cam, block, tf, step=step, plan=plan)
        if p_cold is None or p_warm is None:
            assert p_cold is None and p_warm is None
            return
        assert p_cold.rect == p_warm.rect
        assert np.array_equal(p_cold.rgba, p_warm.rgba)
        assert p_cold.samples == p_warm.samples


def _intersect_scalar(origin, direction, lo, hi):
    """Per-axis scalar slab intersection (the obvious reference)."""
    t_enter, t_exit = 0.0, np.inf
    for a in range(3):
        if direction[a] == 0.0:
            if origin[a] < lo[a] or origin[a] > hi[a]:
                return np.inf, -np.inf
            continue
        t0 = (lo[a] - origin[a]) / direction[a]
        t1 = (hi[a] - origin[a]) / direction[a]
        t_enter = max(t_enter, min(t0, t1))
        t_exit = min(t_exit, max(t0, t1))
    return t_enter, t_exit


class TestVectorizedIntersectFixup:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=2))
    def test_matches_scalar_reference_with_parallel_axes(self, seed, n_zero):
        # Force `n_zero` direction components to exactly 0.0 so the
        # vectorized axis-parallel fixup path is always exercised.
        rng = np.random.default_rng(seed)
        origins = rng.uniform(-4, 4, size=(32, 3))
        dirs = rng.uniform(-1, 1, size=(32, 3))
        for i in range(32):
            for a in rng.choice(3, size=n_zero, replace=False):
                dirs[i, a] = 0.0
        lo = np.array([-1.0, -1.5, -0.5])
        hi = np.array([1.0, 0.5, 1.5])
        t_enter, t_exit = ray_box_intersect(origins, dirs, lo, hi)
        for i in range(32):
            ref_enter, ref_exit = _intersect_scalar(origins[i], dirs[i], lo, hi)
            hit = t_exit[i] > t_enter[i]
            ref_hit = ref_exit > ref_enter
            assert hit == ref_hit
            if hit:
                # The vectorized path multiplies by a precomputed
                # reciprocal; the scalar reference divides — equal to
                # a couple of ULPs, not bitwise.
                assert np.isclose(t_enter[i], ref_enter, rtol=1e-12, atol=0.0)
                assert np.isclose(t_exit[i], ref_exit, rtol=1e-12, atol=0.0)
