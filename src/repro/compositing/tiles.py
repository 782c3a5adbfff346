"""Tile decomposition of the final image among compositors.

Each of the m compositors owns one rectangular tile ("each process
takes ownership for a subregion of the final image").  A 2D tile grid
(as opposed to scanline strips) keeps tiles square-ish, which is what
gives direct-send its O(m * n^(1/3)) total message count — the ablation
bench ``test_ablation_tile_shape`` quantifies the difference.
"""

from __future__ import annotations

import numpy as np

from repro.utils.errors import ConfigError
from repro.utils.validation import check_positive

Rect = tuple[int, int, int, int]


def factor2(m: int, aspect: float = 1.0) -> tuple[int, int]:
    """Split m into (gx, gy) with gx/gy as close to ``aspect`` as possible."""
    best = (m, 1)
    best_err = float("inf")
    for gy in range(1, m + 1):
        if m % gy:
            continue
        gx = m // gy
        err = abs(np.log((gx / gy) / aspect))
        if err < best_err:
            best_err = err
            best = (gx, gy)
    return best


class TileDecomposition:
    """m rectangular tiles covering a width x height image exactly."""

    def __init__(self, width: int, height: int, num_tiles: int, strips: bool = False):
        check_positive("width", width)
        check_positive("height", height)
        check_positive("num_tiles", num_tiles)
        self.width = int(width)
        self.height = int(height)
        self.num_tiles = int(num_tiles)
        if num_tiles > width * height:
            raise ConfigError(f"{num_tiles} tiles exceed {width * height} pixels")
        if strips:
            gx, gy = 1, self.num_tiles
        else:
            gx, gy = factor2(self.num_tiles, aspect=width / height)
        if gx > width or gy > height:
            gx, gy = factor2(self.num_tiles, aspect=1.0)
            if gx > width or gy > height:
                raise ConfigError(
                    f"cannot fit a {gx}x{gy} tile grid into a {width}x{height} image"
                )
        self.grid = (gx, gy)
        self._xs = np.linspace(0, self.width, gx + 1).round().astype(np.int64)
        self._ys = np.linspace(0, self.height, gy + 1).round().astype(np.int64)

    def tile(self, index: int) -> Rect:
        """Rect (x0, y0, w, h) of the tile with this index (x fastest)."""
        if not (0 <= index < self.num_tiles):
            raise ConfigError(f"tile index {index} out of range")
        gx, _gy = self.grid
        tx = index % gx
        ty = index // gx
        x0 = int(self._xs[tx])
        y0 = int(self._ys[ty])
        return (x0, y0, int(self._xs[tx + 1]) - x0, int(self._ys[ty + 1]) - y0)

    def tiles(self) -> list[Rect]:
        return [self.tile(i) for i in range(self.num_tiles)]
