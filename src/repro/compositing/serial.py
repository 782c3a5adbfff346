"""Serial compositing baseline: gather everything to rank 0 and blend.

Functionally this is the correctness oracle (depth-sorted over of all
partial images); performance-wise it is the worst case the distributed
schemes are measured against.
"""

from __future__ import annotations

from typing import Any, Generator

import numpy as np

from repro.render.image import PartialImage, composite_tile


def serial_compose(
    ctx: Any,
    partial: PartialImage | None,
    width: int,
    height: int,
    root: int = 0,
) -> Generator:
    """Gather partial images to ``root`` and blend there.

    Returns the final (height, width, 4) canvas on the root, None on
    every other rank.
    """
    gathered = yield from ctx.gather(partial, root=root)
    if ctx.rank != root:
        return None
    partials = [p for p in gathered if p is not None]
    return composite_tile((0, 0, width, height), partials)


def compose_locally(partials: list[PartialImage | None], width: int, height: int) -> np.ndarray:
    """Pure-local oracle used by tests (no simulated MPI involved)."""
    return composite_tile((0, 0, width, height), [p for p in partials if p is not None])
