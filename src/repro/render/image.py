"""Partial images and the over operator.

A partial image is the RGBA result of ray casting one block: a
premultiplied-alpha float32 array over the block's screen footprint,
plus the depth key compositing sorts by.  The over operator on
premultiplied colours is associative (the compositing tests prove it
numerically), which is what lets direct-send, binary swap, and serial
compositing all produce the same image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.errors import ConfigError

Rect = tuple[int, int, int, int]  # x0, y0, width, height


@dataclass
class PartialImage:
    """Premultiplied RGBA over a footprint rectangle.

    ``rgba`` is (height, width, 4) float32, rows bottom-up (row 0 is
    the lowest pixel row), channels premultiplied by alpha.
    ``depth`` is :meth:`~repro.render.camera.Camera.visibility_key` of
    the source block's box — smaller composites in front.
    """

    rect: Rect
    rgba: np.ndarray
    depth: float
    samples: int = 0  # ray samples taken to produce it (render-cost accounting)

    def __post_init__(self) -> None:
        x0, y0, w, h = self.rect
        if w < 0 or h < 0:
            raise ConfigError(f"negative footprint rect {self.rect}")
        if self.rgba.shape != (h, w, 4):
            raise ConfigError(
                f"rgba shape {self.rgba.shape} does not match rect {self.rect}"
            )

    @property
    def nbytes(self) -> int:
        return int(self.rgba.nbytes)

    def crop(self, rect: Rect) -> "PartialImage":
        """The intersection of this image with ``rect`` (may be empty)."""
        x0, y0, w, h = self.rect
        cx0, cy0, cw, ch = rect
        ix0 = max(x0, cx0)
        iy0 = max(y0, cy0)
        ix1 = min(x0 + w, cx0 + cw)
        iy1 = min(y0 + h, cy0 + ch)
        if ix1 <= ix0 or iy1 <= iy0:
            return _unchecked((ix0, iy0, 0, 0), np.zeros((0, 0, 4), np.float32), self.depth)
        sub = self.rgba[iy0 - y0 : iy1 - y0, ix0 - x0 : ix1 - x0]
        return _unchecked((ix0, iy0, ix1 - ix0, iy1 - iy0), sub, self.depth)

    @property
    def empty(self) -> bool:
        return self.rect[2] == 0 or self.rect[3] == 0

    def trimmed(self) -> "PartialImage":
        """Active-pixel compression: shrink to the non-transparent bbox.

        Block footprints are conservative bounding boxes, so their
        corners are often empty; production compositors (IceT and
        friends) never ship those pixels.  Returns self when nothing
        can be trimmed.
        """
        if self.empty:
            return self
        alpha = self.rgba[..., 3] > 0.0
        rows = np.flatnonzero(alpha.any(axis=1))
        cols = np.flatnonzero(alpha.any(axis=0))
        x0, y0, w, h = self.rect
        if rows.size == 0:
            return PartialImage((x0, y0, 0, 0), np.zeros((0, 0, 4), np.float32), self.depth, self.samples)
        r0, r1 = int(rows[0]), int(rows[-1]) + 1
        c0, c1 = int(cols[0]), int(cols[-1]) + 1
        if r0 == 0 and c0 == 0 and r1 == h and c1 == w:
            return self
        return PartialImage(
            (x0 + c0, y0 + r0, c1 - c0, r1 - r0),
            np.ascontiguousarray(self.rgba[r0:r1, c0:c1]),
            self.depth,
            self.samples,
        )


def _unchecked(rect: Rect, rgba: np.ndarray, depth: float) -> PartialImage:
    """A PartialImage whose rgba has the rect's shape by construction
    (a slice of a validated image); skips ``__post_init__``."""
    p = object.__new__(PartialImage)
    p.rect, p.rgba, p.depth, p.samples = rect, rgba, depth, 0
    return p


def over(front: np.ndarray, back: np.ndarray) -> np.ndarray:
    """Premultiplied-alpha over: front + (1 - alpha_front) * back."""
    return front + (1.0 - front[..., 3:4]) * back


def blank_image(width: int, height: int) -> np.ndarray:
    """A transparent canvas (height, width, 4) float32."""
    return np.zeros((height, width, 4), dtype=np.float32)


def composite_stack(stack: np.ndarray) -> np.ndarray:
    """Over-accumulate a front-to-back fragment stack in one pass.

    ``stack`` is (n, h, w, 4) premultiplied RGBA, fragment 0 nearest.
    Front-to-back over gives every fragment the weight of the
    transmittance above it — ``prod_{j<i} (1 - alpha_j)`` per pixel —
    so the whole blend is a cumulative product and one weighted sum,
    vectorized over the full tile instead of a Python loop per
    fragment.  The sum is the batched (4, n) @ (n, 1) product per pixel
    that ``einsum("nhwc,nhwk->hwc")`` dispatches to, called directly so
    no contraction is planned per tile.
    """
    n = stack.shape[0]
    if n == 1:
        return stack[0].astype(np.float32, copy=True)
    weights = np.empty(stack.shape[:3] + (1,), dtype=np.float32)
    weights[0] = 1.0
    np.cumprod(1.0 - stack[:-1, ..., 3:4], axis=0, out=weights[1:])
    summed = stack.transpose(1, 2, 3, 0) @ weights.transpose(1, 2, 0, 3)
    return summed[..., 0].astype(np.float32, copy=False)


# Stacked compositing allocates one canvas layer per fragment; beyond
# this many floats the loop fallback is cheaper than the allocation.
_STACK_BUDGET_FLOATS = 1 << 26


def _accumulate(partials: list[PartialImage], rect: Rect) -> np.ndarray | None:
    """Front-to-back blend of ``partials`` over ``rect``, on transparent.

    Partials are sorted by depth (stable, so equal depths keep list
    order); a partial that straddles ``rect`` is cropped to it, one
    already inside is used as it is.  Returns None when no partial
    covers a pixel of ``rect``.
    """
    ox, oy, cw, ch = rect
    clipped = []
    for p in sorted(partials, key=lambda p: p.depth):
        x0, y0, w, h = p.rect
        if w == 0 or h == 0:
            continue
        if x0 < ox or y0 < oy or x0 + w > ox + cw or y0 + h > oy + ch:
            p = p.crop(rect)
            if p.empty:
                continue
        clipped.append(p)
    if not clipped:
        return None
    # Union bbox of the surviving fragments, in canvas coordinates.
    bx0 = min(c.rect[0] for c in clipped) - ox
    by0 = min(c.rect[1] for c in clipped) - oy
    bx1 = max(c.rect[0] + c.rect[2] for c in clipped) - ox
    by1 = max(c.rect[1] + c.rect[3] for c in clipped) - oy
    bw, bh = bx1 - bx0, by1 - by0
    acc = blank_image(cw, ch)
    if len(clipped) * bh * bw * 4 <= _STACK_BUDGET_FLOATS:
        stack = np.zeros((len(clipped), bh, bw, 4), dtype=np.float32)
        for i, c in enumerate(clipped):
            x0, y0, w, h = c.rect
            stack[i, y0 - oy - by0 : y0 - oy - by0 + h, x0 - ox - bx0 : x0 - ox - bx0 + w] = c.rgba
        acc[by0:by1, bx0:bx1] = composite_stack(stack)
    else:
        for c in clipped:
            x0, y0, w, h = c.rect
            sl = (slice(y0 - oy, y0 - oy + h), slice(x0 - ox, x0 - ox + w))
            acc[sl] = over(acc[sl], c.rgba)
    return acc


def composite_tile(rect: Rect, partials: list[PartialImage]) -> np.ndarray:
    """Blend partial images into a transparent tile ``rect``, nearest first.

    The same pixels as ``composite_over(blank_image(w, h), partials,
    (x0, y0))`` for premultiplied inputs in [0, 1]: over a transparent
    canvas adds zero, so the accumulator is the tile.
    """
    acc = _accumulate(partials, rect)
    return blank_image(rect[2], rect[3]) if acc is None else acc


def composite_over(
    canvas: np.ndarray, partials: list[PartialImage], canvas_origin: tuple[int, int] = (0, 0)
) -> np.ndarray:
    """Blend partial images into a canvas, nearest (smallest depth) first.

    The canvas is treated as farther than every partial (it starts
    transparent, so ordering against it is irrelevant); partials are
    sorted by depth.  Fragment lists are blended with one vectorized
    over-accumulation across the union of their footprints
    (:func:`composite_stack`); very large fragment sets fall back to
    the per-fragment loop to bound memory.
    """
    ch, cw = canvas.shape[:2]
    acc = _accumulate(partials, (canvas_origin[0], canvas_origin[1], cw, ch))
    if acc is None:
        return canvas.astype(np.float32, copy=True)
    return over(acc, canvas)


def image_to_ppm(rgba: np.ndarray, background: tuple[float, float, float] = (0, 0, 0)) -> bytes:
    """Flatten premultiplied RGBA onto a background; binary PPM bytes.

    PPM rows run top-down, so the bottom-up canvas is flipped.
    """
    if rgba.ndim != 3 or rgba.shape[2] != 4:
        raise ConfigError(f"expected (h, w, 4) rgba, got {rgba.shape}")
    bg = np.asarray(background, dtype=np.float32)
    rgb = rgba[..., :3] + (1.0 - rgba[..., 3:4]) * bg
    img = (np.clip(rgb, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)[::-1]
    h, w = img.shape[:2]
    return f"P6\n{w} {h}\n255\n".encode("ascii") + img.tobytes()
