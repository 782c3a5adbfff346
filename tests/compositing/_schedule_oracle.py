"""The brute-force direct-send schedule: the reference the vectorised
builder in :mod:`repro.compositing.schedule` is held to.

This is the loop the library ran until the two builders became one —
one scalar ``footprint`` per block, ``tiles_overlapping`` and
``overlap_area`` per (block, tile), formerly ``Camera.footprint`` and
two ``TileDecomposition`` methods — kept here, beside its test, so the
schedule has an oracle that shares no footprint or enumeration code
with it (only ``Camera.project``).  It returns plain ``(src, tile,
pixels)`` tuples in the order the library must reproduce.
"""

from __future__ import annotations

import numpy as np

from repro.compositing.tiles import TileDecomposition


def footprint(camera, lo, hi):
    """Pixel bbox (x0, y0, w, h) of a world-space AABB, clipped; None
    when it projects entirely off screen."""
    corners = np.array(
        [[x, y, z] for x in (lo[0], hi[0]) for y in (lo[1], hi[1]) for z in (lo[2], hi[2])]
    )
    pix = camera.project(corners)
    if np.any(np.isnan(pix)):
        # Conservative: box reaches behind the camera.
        return (0, 0, camera.width, camera.height)
    x0 = int(np.floor(pix[:, 0].min()))
    x1 = int(np.ceil(pix[:, 0].max()))
    y0 = int(np.floor(pix[:, 1].min()))
    y1 = int(np.ceil(pix[:, 1].max()))
    x0 = max(x0, 0)
    y0 = max(y0, 0)
    x1 = min(x1 + 1, camera.width)
    y1 = min(y1 + 1, camera.height)
    if x1 <= x0 or y1 <= y0:
        return None
    return (x0, y0, x1 - x0, y1 - y0)


def oracle_footprints(decomposition, camera):
    """Per-block footprint of the owned-region world AABB (None = off
    screen; the whole frame when it reaches behind the eye)."""
    gz, gy, gx = decomposition.grid_shape
    footprints = []
    for b in decomposition.blocks():
        z, y, x = b.start
        lo = np.array([x, y, z], dtype=np.float64)
        hi = np.array(
            [
                min(x + b.count[2], gx - 1),
                min(y + b.count[1], gy - 1),
                min(z + b.count[0], gz - 1),
            ],
            dtype=np.float64,
        )
        footprints.append(footprint(camera, lo, hi))
    return footprints


def tiles_overlapping(tiles, rect):
    """Indices of tiles intersecting a footprint rect, row-major."""
    x0, y0, w, h = rect
    if w <= 0 or h <= 0:
        return []
    gx, gy = tiles.grid
    tx0 = int(np.searchsorted(tiles._xs, x0, side="right")) - 1
    tx1 = int(np.searchsorted(tiles._xs, x0 + w - 1, side="right")) - 1
    ty0 = int(np.searchsorted(tiles._ys, y0, side="right")) - 1
    ty1 = int(np.searchsorted(tiles._ys, y0 + h - 1, side="right")) - 1
    tx0 = max(tx0, 0)
    ty0 = max(ty0, 0)
    tx1 = min(tx1, gx - 1)
    ty1 = min(ty1, gy - 1)
    return [ty * gx + tx for ty in range(ty0, ty1 + 1) for tx in range(tx0, tx1 + 1)]


def overlap_area(tiles, rect, tile_index):
    """Pixels shared by a footprint rect and one tile."""
    x0, y0, w, h = rect
    tx0, ty0, tw, th = tiles.tile(tile_index)
    ow = min(x0 + w, tx0 + tw) - max(x0, tx0)
    oh = min(y0 + h, ty0 + th) - max(y0, ty0)
    return max(ow, 0) * max(oh, 0)


def oracle_messages(footprints, tiles):
    """``[(src, tile, pixels)]`` from per-renderer rects, renderer-major,
    each renderer's tiles in ``tiles_overlapping`` order."""
    msgs = []
    for src, rect in enumerate(footprints):
        if rect is None:
            continue
        for t in tiles_overlapping(tiles, rect):
            area = overlap_area(tiles, rect, t)
            if area:
                msgs.append((src, t, area))
    return msgs


def oracle_schedule(decomposition, camera, num_compositors, strips=False):
    tiles = TileDecomposition(camera.width, camera.height, num_compositors, strips=strips)
    return oracle_messages(oracle_footprints(decomposition, camera), tiles)
