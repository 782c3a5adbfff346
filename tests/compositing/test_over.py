"""The over operator: algebraic properties that make sort-last work."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.render.image import (
    PartialImage,
    blank_image,
    composite_over,
    composite_stack,
    composite_tile,
    over,
)

rgba_px = hnp.arrays(
    np.float64,
    (3, 3, 4),
    elements=st.floats(min_value=0.0, max_value=1.0),
).map(_premultiply := lambda a: np.concatenate([a[..., :3] * a[..., 3:4], a[..., 3:4]], axis=-1))


class TestOverOperator:
    @settings(max_examples=60, deadline=None)
    @given(rgba_px, rgba_px, rgba_px)
    def test_associative(self, a, b, c):
        """over(a, over(b, c)) == over(over(a, b), c) — the property that
        lets direct-send, binary swap, and serial compositing agree."""
        left = over(a, over(b, c))
        right = over(over(a, b), c)
        assert np.allclose(left, right, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(rgba_px)
    def test_transparent_is_identity(self, a):
        zero = np.zeros_like(a)
        assert np.allclose(over(a, zero), a)
        assert np.allclose(over(zero, a), a)

    @settings(max_examples=30, deadline=None)
    @given(rgba_px, rgba_px)
    def test_opaque_front_wins(self, a, b):
        a = a.copy()
        a[..., 3] = 1.0
        assert np.allclose(over(a, b), a)

    @settings(max_examples=30, deadline=None)
    @given(rgba_px, rgba_px)
    def test_alpha_stays_in_unit_interval(self, a, b):
        out = over(a, b)
        assert np.all(out[..., 3] <= 1.0 + 1e-12)
        assert np.all(out[..., 3] >= 0.0)

    @settings(max_examples=30, deadline=None)
    @given(rgba_px, rgba_px)
    def test_not_commutative_in_general(self, a, b):
        # Not a required property — just documents that order matters,
        # which is why compositing must sort by depth.
        _ = over(a, b), over(b, a)  # both defined; inequality not asserted

    def test_blank_image_shape(self):
        img = blank_image(10, 6)
        assert img.shape == (6, 10, 4)
        assert img.dtype == np.float32
        assert not img.any()


# -- the sort-last hand-off, byte for byte ---------------------------------


def _einsum_stack(stack):
    """The contraction ``composite_stack`` computed before it called
    ``matmul`` itself: the oracle for its bytes."""
    if stack.shape[0] == 1:
        return stack[0].astype(np.float32, copy=True)
    weights = np.empty(stack.shape[:3] + (1,), dtype=np.float32)
    weights[0] = 1.0
    np.cumprod(1.0 - stack[:-1, ..., 3:4], axis=0, out=weights[1:])
    return np.einsum("nhwc,nhwk->hwc", stack, weights, optimize=True).astype(
        np.float32, copy=False
    )


def _crop_everything_over(canvas, partials, canvas_origin=(0, 0)):
    """``composite_over`` as it was before pieces inside the canvas
    skipped their crop: every piece is cropped against the canvas, then
    blended on a transparent accumulator, then put over the canvas."""
    ox, oy = canvas_origin
    ch, cw = canvas.shape[:2]
    clipped = []
    for p in sorted(partials, key=lambda p: p.depth):
        if p.empty:
            continue
        c = p.crop((ox, oy, cw, ch))
        if not c.empty:
            clipped.append(c)
    if not clipped:
        return canvas.astype(np.float32, copy=True)
    bx0 = min(c.rect[0] for c in clipped) - ox
    by0 = min(c.rect[1] for c in clipped) - oy
    bx1 = max(c.rect[0] + c.rect[2] for c in clipped) - ox
    by1 = max(c.rect[1] + c.rect[3] for c in clipped) - oy
    stack = np.zeros((len(clipped), by1 - by0, bx1 - bx0, 4), dtype=np.float32)
    for i, c in enumerate(clipped):
        x0, y0, w, h = c.rect
        stack[i, y0 - oy - by0 : y0 - oy - by0 + h, x0 - ox - bx0 : x0 - ox - bx0 + w] = c.rgba
    acc = blank_image(cw, ch)
    acc[by0:by1, bx0:bx1] = _einsum_stack(stack)
    return over(acc, canvas)


def _premultiplied(rng, h, w):
    rgba = rng.random((h, w, 4), dtype=np.float32)
    rgba[..., :3] *= rgba[..., 3:4]
    return rgba


@st.composite
def pieces_and_tile(draw):
    """A tile and pieces that lie inside it, straddle it, miss it, or
    are empty; depths are drawn from a few values so ties occur."""
    tx, ty = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    tw, th = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    pieces = []
    for _ in range(draw(st.integers(0, 7))):
        w, h = draw(st.integers(0, 8)), draw(st.integers(0, 8))
        x0, y0 = draw(st.integers(0, 16)), draw(st.integers(0, 16))
        depth = float(draw(st.sampled_from([0.25, 0.5, 0.75, float("inf")])))
        pieces.append(PartialImage((x0, y0, w, h), _premultiplied(rng, h, w), depth))
    return (tx, ty, tw, th), pieces


class TestHandOff:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 17), st.integers(1, 24), st.integers(1, 24), st.integers(0, 2**16))
    @example(1, 1, 1, 0)
    @example(2, 1, 1, 1)
    @example(17, 6, 6, 2)
    def test_stack_matmul_equals_einsum(self, n, h, w, seed):
        stack = np.stack([_premultiplied(np.random.default_rng(seed + i), h, w) for i in range(n)])
        got, want = composite_stack(stack), _einsum_stack(stack)
        assert got.dtype == want.dtype == np.float32 and got.shape == want.shape == (h, w, 4)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(pieces_and_tile())
    def test_over_skips_only_no_op_crops(self, case):
        (tx, ty, tw, th), pieces = case
        canvas = _premultiplied(np.random.default_rng(tw * th), th, tw)
        got = composite_over(canvas, pieces, canvas_origin=(tx, ty))
        want = _crop_everything_over(canvas, pieces, canvas_origin=(tx, ty))
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(pieces_and_tile())
    def test_tile_equals_over_blank(self, case):
        rect, pieces = case
        x0, y0, w, h = rect
        want = composite_over(blank_image(w, h), pieces, canvas_origin=(x0, y0))
        got = composite_tile(rect, pieces)
        assert got.dtype == np.float32 and got.tobytes() == want.tobytes()
        # Pieces already cropped to the tile (the fan-out's) give the same bytes.
        assert composite_tile(rect, [p.crop(rect) for p in pieces]).tobytes() == want.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(pieces_and_tile())
    def test_crop_equals_validated_constructor(self, case):
        rect, pieces = case
        for p in pieces:
            c = p.crop(rect)
            ref = PartialImage(c.rect, c.rgba, c.depth)  # validates shape against rect
            assert (c.rect, c.depth, c.samples) == (ref.rect, ref.depth, 0)
            if not c.empty:
                x0, y0, w, h = c.rect
                px, py = p.rect[:2]
                assert np.shares_memory(c.rgba, p.rgba)  # a view, not a copy
                assert np.array_equal(c.rgba, p.rgba[y0 - py : y0 - py + h, x0 - px : x0 - px + w])

    def test_crop_skips_post_init(self, monkeypatch):
        p = PartialImage((2, 3, 4, 5), np.zeros((5, 4, 4), np.float32), 1.0)

        def refuse(self):
            raise AssertionError("crop re-validated its slice")

        monkeypatch.setattr(PartialImage, "__post_init__", refuse)
        assert p.crop((0, 0, 4, 5)).rect == (2, 3, 2, 2)
        assert p.crop((50, 50, 1, 1)).empty
        with pytest.raises(AssertionError):
            PartialImage((0, 0, 0, 0), np.zeros((0, 0, 4), np.float32), 0.0)
