"""Regular block decomposition and static block-to-rank allocation.

The paper's algorithm "divides the data space into regular blocks and
statically allocates a small number of blocks to each process"
(Sec. III-B).  Here the common case is one block per process; the
round-robin allocator also supports several blocks per process.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.errors import ConfigError
from repro.utils.validation import check_positive, check_shape3


@dataclass(frozen=True)
class Block3D:
    """One block: owned region [start, start+count) per axis (z, y, x)."""

    index: int
    start: tuple[int, int, int]
    count: tuple[int, int, int]

    @property
    def stop(self) -> tuple[int, int, int]:
        return tuple(s + c for s, c in zip(self.start, self.count))  # type: ignore[return-value]

    def ghost_read(
        self, grid_shape: tuple[int, int, int], ghost: int = 1
    ) -> tuple[tuple[int, int, int], tuple[int, int, int], tuple[int, int, int]]:
        """(read_start, read_count, ghost_lo) clipped to the grid.

        The read region extends ``ghost`` voxels beyond the owned
        region wherever the volume continues; ghost_lo records how far
        the lower corner moved (for :class:`VolumeBlock`).
        """
        read_start = []
        read_count = []
        ghost_lo = []
        for d in range(3):
            lo = max(self.start[d] - ghost, 0)
            hi = min(self.start[d] + self.count[d] + ghost, grid_shape[d])
            read_start.append(lo)
            read_count.append(hi - lo)
            ghost_lo.append(self.start[d] - lo)
        return tuple(read_start), tuple(read_count), tuple(ghost_lo)  # type: ignore[return-value]


def block_world_bounds(block, grid_shape: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray]:
    """World (x, y, z) AABB of the owned region of ``block`` — a
    :class:`Block3D` or anything else with (z, y, x) ``start`` / ``count``.

    Interior faces end where the neighbour begins, so ray segments
    partition exactly; outer faces end at the last voxel.
    """
    z, y, x = block.start
    cz, cy, cx = block.count
    gz, gy, gx = grid_shape
    lo = np.array([x, y, z], dtype=np.float64)
    hi = np.array(
        [min(x + cx, gx - 1), min(y + cy, gy - 1), min(z + cz, gz - 1)],
        dtype=np.float64,
    )
    return lo, hi


def factor3(n: int) -> tuple[int, int, int]:
    """Split ``n`` into three factors as close to cubic as possible."""
    dims = [1, 1, 1]
    f = 2
    rem = n
    factors: list[int] = []
    while f * f <= rem:
        while rem % f == 0:
            factors.append(f)
            rem //= f
        f += 1
    if rem > 1:
        factors.append(rem)
    for p in sorted(factors, reverse=True):
        dims[int(np.argmin(dims))] *= p
    return tuple(sorted(dims))  # type: ignore[return-value]


class BlockDecomposition:
    """Partition a (nz, ny, nx) grid into a regular grid of blocks."""

    def __init__(self, grid_shape: tuple[int, int, int], num_blocks: int,
                 block_grid: tuple[int, int, int] | None = None):
        self.grid_shape = check_shape3("grid_shape", grid_shape)
        check_positive("num_blocks", num_blocks)
        self.num_blocks = int(num_blocks)
        bg = block_grid or factor3(self.num_blocks)
        bg = check_shape3("block_grid", bg)
        if int(np.prod(bg)) != self.num_blocks:
            raise ConfigError(f"block grid {bg} does not produce {num_blocks} blocks")
        for d in range(3):
            if bg[d] > self.grid_shape[d]:
                raise ConfigError(
                    f"more blocks than voxels along axis {d}: {bg[d]} > {self.grid_shape[d]}"
                )
        self.block_grid = bg
        # Per-axis split points (balanced: sizes differ by at most 1).
        self._edges = [
            np.linspace(0, self.grid_shape[d], bg[d] + 1).round().astype(np.int64)
            for d in range(3)
        ]

    def plan_key(self) -> tuple:
        """Hashable identity for plan caching: equal keys produce the
        same blocks (grid, count, and block grid determine the edges)."""
        return (self.grid_shape, self.num_blocks, self.block_grid)

    def block(self, index: int) -> Block3D:
        """The block with linear index ``index`` (x fastest)."""
        if not (0 <= index < self.num_blocks):
            raise ConfigError(f"block index {index} out of range")
        bgz, bgy, bgx = self.block_grid
        bx = index % bgx
        by = (index // bgx) % bgy
        bz = index // (bgx * bgy)
        e = self._edges
        start = (int(e[0][bz]), int(e[1][by]), int(e[2][bx]))
        count = (
            int(e[0][bz + 1] - e[0][bz]),
            int(e[1][by + 1] - e[1][by]),
            int(e[2][bx + 1] - e[2][bx]),
        )
        return Block3D(index, start, count)

    def blocks(self) -> list[Block3D]:
        return [self.block(i) for i in range(self.num_blocks)]

    def blocks_for_rank(self, rank: int, nprocs: int) -> list[Block3D]:
        """Static round-robin allocation of blocks to ranks."""
        if not (0 <= rank < nprocs):
            raise ConfigError(f"rank {rank} out of range for {nprocs} processes")
        return [self.block(i) for i in range(rank, self.num_blocks, nprocs)]

    def world_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """:func:`block_world_bounds` of every block at once: ``(lo, hi)``,
        each ``(num_blocks, 3)`` float64 in world (x, y, z)."""
        bgz, bgy, bgx = self.block_grid
        idx = np.arange(self.num_blocks)
        slots = (idx % bgx, (idx // bgx) % bgy, idx // (bgx * bgy))
        lo = np.empty((self.num_blocks, 3), dtype=np.float64)
        hi = np.empty_like(lo)
        for world, slot in enumerate(slots):
            edges = self._edges[2 - world]  # edges and grid_shape are (z, y, x)
            lo[:, world] = edges[:-1][slot]
            hi[:, world] = np.minimum(edges[1:], self.grid_shape[2 - world] - 1)[slot]
        return lo, hi
