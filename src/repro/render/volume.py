"""Volume blocks: a rank's piece of the structured grid, with ghost.

Grid convention: arrays are indexed ``data[z, y, x]``; the voxel at
index (z, y, x) sits at world position (x, y, z) (unit spacing).  A
block owns voxels ``start .. start+count`` (exclusive) in each axis and
carries one extra ghost layer where the volume continues, so trilinear
interpolation at block faces agrees exactly between neighbours.
"""

from __future__ import annotations

import numpy as np

from repro.render.decomposition import block_world_bounds
from repro.utils.errors import ConfigError
from repro.utils.validation import check_shape3


def _cell(coord: np.ndarray, first: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(lower cell index, float32 weight of the upper cell) along one
    axis of ``n >= 2`` voxels whose index 0 sits at world ``first``.

    The weight is exact: ``i0 <= i`` is an integer, so ``i - i0`` lies
    on the float32 ``i``'s own ulp grid — the same number a float64
    subtraction rounded back to float32 gives.
    """
    i = np.clip(coord - np.float32(first), 0.0, n - 1.0)
    i0 = np.minimum(i.astype(np.intp), n - 2)
    return i0, i - i0.astype(np.float32)


class VolumeBlock:
    """One block of a scalar volume, possibly with ghost layers."""

    def __init__(
        self,
        data: np.ndarray,
        grid_shape: tuple[int, int, int],
        start: tuple[int, int, int],
        count: tuple[int, int, int],
        ghost_lo: tuple[int, int, int] = (0, 0, 0),
    ):
        """``data`` covers ``start - ghost_lo`` for ``data.shape`` voxels.

        ``start``/``count`` (z, y, x order) delimit the *owned* region;
        ghost voxels beyond it are used for interpolation only.
        """
        # Contiguous so the flat-gather fast path can view, not copy.
        self.data = np.ascontiguousarray(data, dtype=np.float32)
        self.grid_shape = check_shape3("grid_shape", grid_shape)
        self.start = tuple(int(s) for s in start)
        if len(self.start) != 3 or any(s < 0 for s in self.start):
            raise ConfigError(f"start must be three non-negative ints, got {start!r}")
        self.count = check_shape3("count", count)
        self.ghost_lo = tuple(int(g) for g in ghost_lo)
        if self.data.ndim != 3:
            raise ConfigError(f"block data must be 3D, got shape {self.data.shape}")
        for d in range(3):
            lo = self.start[d] - self.ghost_lo[d]
            if lo < 0 or lo + self.data.shape[d] > self.grid_shape[d]:
                raise ConfigError(
                    f"block data along axis {d} ([{lo}, {lo + self.data.shape[d]})) "
                    f"exceeds grid extent {self.grid_shape[d]}"
                )
            if self.data.shape[d] < self.count[d] + self.ghost_lo[d]:
                raise ConfigError(
                    f"block data along axis {d} smaller than owned region + ghost"
                )

    @classmethod
    def whole(cls, data: np.ndarray) -> "VolumeBlock":
        """The entire volume as one block (the serial reference)."""
        shape = tuple(int(s) for s in np.asarray(data).shape)
        return cls(data, shape, (0, 0, 0), shape)  # type: ignore[arg-type]

    # -- geometry (world = (x, y, z) = (index2, index1, index0)) ------------

    @property
    def world_lo(self) -> np.ndarray:
        """Lower corner of the owned region in world (x, y, z)."""
        return block_world_bounds(self, self.grid_shape)[0]

    @property
    def world_hi(self) -> np.ndarray:
        """Upper corner of the owned region (the last owned voxel position)."""
        return block_world_bounds(self, self.grid_shape)[1]

    # -- sampling -------------------------------------------------------------

    def sample_world(self, points: np.ndarray) -> np.ndarray:
        """Trilinear interpolation at world points (..., 3) -> values.

        Points are clamped to the data extent, so samples marginally
        outside (float fuzz at faces) read the face value; ghost layers
        make face samples agree across neighbouring blocks.
        """
        p = np.asarray(points, dtype=np.float64)
        # World (x, y, z) -> local fractional indices (z, y, x).
        iz = p[..., 2] - (self.start[0] - self.ghost_lo[0])
        iy = p[..., 1] - (self.start[1] - self.ghost_lo[1])
        ix = p[..., 0] - (self.start[2] - self.ghost_lo[2])
        nz, ny, nx = self.data.shape
        iz = np.clip(iz, 0.0, nz - 1.0)
        iy = np.clip(iy, 0.0, ny - 1.0)
        ix = np.clip(ix, 0.0, nx - 1.0)
        z0 = np.minimum(iz.astype(np.int64), nz - 2) if nz > 1 else np.zeros_like(iz, np.int64)
        y0 = np.minimum(iy.astype(np.int64), ny - 2) if ny > 1 else np.zeros_like(iy, np.int64)
        x0 = np.minimum(ix.astype(np.int64), nx - 2) if nx > 1 else np.zeros_like(ix, np.int64)
        fz = iz - z0
        fy = iy - y0
        fx = ix - x0
        d = self.data
        z1 = np.minimum(z0 + 1, nz - 1)
        y1 = np.minimum(y0 + 1, ny - 1)
        x1 = np.minimum(x0 + 1, nx - 1)
        c000 = d[z0, y0, x0]
        c001 = d[z0, y0, x1]
        c010 = d[z0, y1, x0]
        c011 = d[z0, y1, x1]
        c100 = d[z1, y0, x0]
        c101 = d[z1, y0, x1]
        c110 = d[z1, y1, x0]
        c111 = d[z1, y1, x1]
        c00 = c000 * (1 - fx) + c001 * fx
        c01 = c010 * (1 - fx) + c011 * fx
        c10 = c100 * (1 - fx) + c101 * fx
        c11 = c110 * (1 - fx) + c111 * fx
        c0 = c00 * (1 - fy) + c01 * fy
        c1 = c10 * (1 - fy) + c11 * fy
        return c0 * (1 - fz) + c1 * fz

    def sample_axes_f32(self, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Trilinear interpolation in float32 at world points given as
        three flat float32 coordinate vectors.

        The ray caster's sampler: one contiguous vector per axis (no
        strided ``p[..., k]`` reads), weights kept single precision and
        the eight corner reads sharing one flat base index.  Values
        agree with :meth:`sample_world` to float32 rounding.
        """
        nz, ny, nx = self.data.shape
        if min(nz, ny, nx) < 2:
            # Degenerate axes need the clamped corner logic.
            return self.sample_world(np.stack([x, y, z], axis=-1)).astype(np.float32)
        z0, fz = _cell(z, self.start[0] - self.ghost_lo[0], nz)
        y0, fy = _cell(y, self.start[1] - self.ghost_lo[1], ny)
        x0, fx = _cell(x, self.start[2] - self.ghost_lo[2], nx)
        gx = 1 - fx
        gy = 1 - fy
        flat = self.data.reshape(-1)
        base = (z0 * ny + y0) * nx + x0
        c00 = flat[base] * gx + flat[base + 1] * fx
        base += nx
        c01 = flat[base] * gx + flat[base + 1] * fx
        base += ny * nx - nx
        c10 = flat[base] * gx + flat[base + 1] * fx
        base += nx
        c11 = flat[base] * gx + flat[base + 1] * fx
        c0 = c00 * gy + c01 * fy
        c1 = c10 * gy + c11 * fy
        return c0 * (1 - fz) + c1 * fz
