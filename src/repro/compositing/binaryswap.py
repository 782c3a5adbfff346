"""Binary-swap compositing (Ma, Painter, Hansen & Krogh, cited as [13]).

The baseline the paper contrasts with direct-send.  In log2(p) rounds,
partners exchange complementary halves of their current image region
and blend; afterwards each rank owns 1/p of the fully composited image.

Correct blending order without per-pixel depth sorting requires the
pairing to follow a spatial kd-split of the *data*: partners hold
sub-volumes separated by a plane, and the one whose box has the smaller
:meth:`~repro.render.camera.Camera.visibility_key` — the key every
compositor sorts by — is in front.  This implementation pairs ranks
along the block grid's axes, which is exactly the kd-tree of a regular
power-of-two decomposition.

Requires p = number of blocks with a power-of-two block grid in every
axis, one block per rank (rank == block index).

That kd pairing is radix-k's with every radix equal to 2, so binary swap
runs as :func:`~repro.compositing.radixk.radix_k_compose` with ``k = 2``;
only the power-of-two requirement is its own.
"""

from __future__ import annotations

from typing import Any, Generator, Sequence

from repro.compositing.radixk import radix_k_compose
from repro.render.camera import Camera
from repro.render.decomposition import BlockDecomposition
from repro.render.image import PartialImage
from repro.utils.errors import ConfigError


def check_pow2_grid(block_grid: Sequence[int]) -> None:
    for d, extent in zip("zyx", block_grid):
        if extent < 1 or extent & (extent - 1):
            raise ConfigError(
                f"binary swap needs a power-of-two block grid; "
                f"axis {d} extent {extent} is not a power of two"
            )


def binary_swap_compose(
    ctx: Any,
    partial: PartialImage | None,
    decomposition: BlockDecomposition,
    camera: Camera,
) -> Generator:
    """One binary-swap phase; returns (region_rect, region_image).

    Every rank returns its owned 1/p of the final image (regions
    partition the canvas).
    """
    check_pow2_grid(decomposition.block_grid)
    return (yield from radix_k_compose(ctx, partial, decomposition, camera, k=2))
