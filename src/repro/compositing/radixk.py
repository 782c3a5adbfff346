"""Radix-k compositing — the follow-on this paper led to.

Peterka et al.'s later Radix-k algorithm (SC'09) factors the process
count into rounds of radix k_i: within each round, groups of k_i
processes split their current image region k_i ways and exchange, so
k = 2 everywhere reproduces binary swap and a single round with k = p
behaves like direct-send.  Tuning the factorization trades message
count against message size — exactly the trade-off Sec. IV-A of this
paper manages by limiting compositors.

This implementation pairs rounds with the axes of the regular block
grid: each axis contributes rounds whose radices multiply to the axis
extent.  A member's round image covers a box — its slab on the round's
axis, the full span of axes already reduced, its own column on the
rest — and the group blends in the order of those boxes'
:meth:`~repro.render.camera.Camera.visibility_key`, the one key every
compositor sorts by, so any eye position works.
Requirements: one block per rank; each axis extent equals the product
of its radices.
"""

from __future__ import annotations

from typing import Any, Generator, Sequence

import numpy as np

from repro.compositing.directsend import assemble_tiles
from repro.render.camera import Camera
from repro.render.decomposition import BlockDecomposition
from repro.render.image import PartialImage, composite_tile, over
from repro.utils.errors import ConfigError

RADIX_TAG = 7300


def default_radices(extent: int, k: int) -> list[int]:
    """Factor an axis extent into radices of at most ``k`` (greedy)."""
    if extent < 1:
        raise ConfigError(f"axis extent must be >= 1, got {extent}")
    out: list[int] = []
    rem = extent
    f = min(k, rem)
    while rem > 1:
        while f > 1 and rem % f:
            f -= 1
        if f <= 1:
            raise ConfigError(f"extent {extent} has no factor <= {k} besides 1")
        out.append(f)
        rem //= f
        f = min(k, rem)
    return out or [1]


def check_one_block_per_rank(
    who: str, nprocs: int, decomposition: BlockDecomposition | None
) -> tuple[int, int, int]:
    """The round-based family's precondition (rank == block index)."""
    if decomposition is None:
        raise ConfigError(f"{who} needs the block decomposition")
    bgz, bgy, bgx = decomposition.block_grid
    if bgz * bgy * bgx != nprocs:
        raise ConfigError(
            f"{who} needs one block per rank (blocks={bgz * bgy * bgx}, ranks={nprocs})"
        )
    return bgz, bgy, bgx


def radix_k_compose(
    ctx: Any,
    partial: PartialImage | None,
    decomposition: BlockDecomposition,
    camera: Camera,
    radices: dict[str, Sequence[int]] | None = None,
    k: int = 4,
) -> Generator:
    """One radix-k phase; returns (region_rect, region_image).

    ``radices`` maps axis name ('z', 'y', 'x') to its round radices;
    omitted axes use :func:`default_radices` with target ``k``.
    Afterwards each rank owns 1/p of the fully composited image.
    """
    bgz, bgy, bgx = check_one_block_per_rank("radix-k", ctx.size, decomposition)
    extents = {"z": bgz, "y": bgy, "x": bgx}
    plan: dict[str, list[int]] = {}
    for axis, extent in extents.items():
        given = list((radices or {}).get(axis, default_radices(extent, k)))
        prod = int(np.prod(given)) if given else 1
        if prod != extent:
            raise ConfigError(
                f"radices {given} for axis {axis} multiply to {prod}, "
                f"but the block grid extent is {extent}"
            )
        plan[axis] = given

    region = (0, 0, camera.width, camera.height)
    image = composite_tile(region, [] if partial is None else [partial])

    bx = ctx.rank % bgx
    by = (ctx.rank // bgx) % bgy
    bz = ctx.rank // (bgx * bgy)
    coords = {"z": bz, "y": by, "x": bx}
    strides = {"x": 1, "y": bgx, "z": bgx * bgy}
    block_lo, block_hi = decomposition.world_bounds()
    # Block coordinates of the first and last block of the box this
    # rank's image covers: its own block before the first round.
    first, last = dict(coords), dict(coords)

    def index(c: dict[str, int]) -> int:
        return sum(c[a] * strides[a] for a in c)

    split_horizontal = False
    seq = 0
    for axis in ("z", "y", "x"):
        group_size = 1  # radix product already combined along this axis
        for radix in plan[axis]:
            if radix == 1:
                continue
            # This round's group: ranks whose axis coordinate differs
            # only in the current digit (of value `radix`, place
            # `group_size`).
            digit = (coords[axis] // group_size) % radix
            base_coord = coords[axis] - digit * group_size
            members = [
                ctx.rank + ((base_coord + j * group_size) - coords[axis]) * strides[axis]
                for j in range(radix)
            ]
            # Member j's image covers its slab on this axis and this
            # rank's box on the others; blend in the boxes' visibility
            # order, equal keys by digit.
            start = first[axis] - digit * group_size  # the group's first coordinate
            keys = [
                camera.visibility_key(
                    block_lo[index({**first, axis: start + j * group_size})],
                    block_hi[index({**last, axis: start + (j + 1) * group_size - 1})],
                )
                for j in range(radix)
            ]

            pieces_rects = _split_k(region, radix, split_horizontal)
            split_horizontal = not split_horizontal
            mine = pieces_rects[digit]
            tag = RADIX_TAG + seq
            seq += 1
            reqs = []
            for j, member in enumerate(members):
                if member == ctx.rank:
                    continue
                piece = _crop(image, region, pieces_rects[j])
                reqs.append(ctx.isend((digit, piece), member, tag))
            collected: list[tuple[int, np.ndarray]] = [
                (digit, _crop(image, region, mine))
            ]
            for _ in range(radix - 1):
                payload, _status = yield from ctx.recv_status(tag=tag)
                collected.append(payload)
            yield from ctx.waitall(reqs)
            collected.sort(key=lambda t: (keys[t[0]], t[0]))
            acc = collected[0][1]
            for _j, img in collected[1:]:
                acc = over(acc, img)
            image = acc
            region = mine
            first[axis], last[axis] = start, start + radix * group_size - 1
            group_size *= radix  # combined slab grows; next digit's place
    return region, image


def _split_k(region: tuple[int, int, int, int], kparts: int, horizontal: bool):
    """Split a region into k parts along one direction."""
    x0, y0, w, h = region
    rects = []
    if horizontal or w < kparts:
        cuts = np.linspace(0, h, kparts + 1).round().astype(int)
        for i in range(kparts):
            rects.append((x0, y0 + int(cuts[i]), w, int(cuts[i + 1] - cuts[i])))
    else:
        cuts = np.linspace(0, w, kparts + 1).round().astype(int)
        for i in range(kparts):
            rects.append((x0 + int(cuts[i]), y0, int(cuts[i + 1] - cuts[i]), h))
    return rects


def _crop(image: np.ndarray, region: tuple[int, int, int, int], rect: tuple[int, int, int, int]):
    """Crop a region-local image to a sub-rect (rect within region)."""
    x0, y0, _w, _h = region
    rx0, ry0, rw, rh = rect
    return image[ry0 - y0 : ry0 - y0 + rh, rx0 - x0 : rx0 - x0 + rw].copy()


def radix_k_gather(
    ctx: Any,
    region: tuple[int, int, int, int],
    image: np.ndarray,
    width: int,
    height: int,
    root: int = 0,
) -> Generator:
    """Collect the per-rank regions into the full canvas at ``root``."""
    gathered = yield from ctx.gather((region, image), root=root)
    return assemble_tiles([gathered], width, height) if ctx.rank == root else None
