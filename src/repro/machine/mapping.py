"""Rank-to-torus-coordinate mappings.

Blue Gene assigns MPI ranks to (x, y, z, t) coordinates, where t is the
core index within a node.  The mapping order determines which ranks are
physical neighbours and therefore shapes link contention.  The BG/P
default is ``XYZT`` (x varies fastest, core index slowest); ``TXYZ``
places consecutive ranks on the same node first.
"""

from __future__ import annotations

import numpy as np

from repro.machine.partition import Partition
from repro.utils.errors import ConfigError

MAPPING_ORDERS = ("XYZT", "TXYZ", "ZYXT", "TZYX")


class RankMapping:
    """Vectorized bidirectional rank <-> (x, y, z, t) mapping.

    The rank -> node map is a pure function of ``(partition, order)``,
    so it is resolved once here: ``node_table`` (read-only ``int64``,
    one entry per rank) and ``node_list`` (the same as Python ints,
    for callers that range-check a whole batch themselves) are what
    :meth:`node_of` indexes.  Both DES worlds look up every message's
    endpoints through them.
    """

    def __init__(self, partition: Partition, order: str = "XYZT"):
        order = order.upper()
        if order not in MAPPING_ORDERS:
            raise ConfigError(f"unknown mapping order {order!r}; choose from {MAPPING_ORDERS}")
        self.partition = partition
        self.order = order
        sx, sy, sz = partition.shape  # type: ignore[misc]
        self._extent = {"X": sx, "Y": sy, "Z": sz, "T": partition.processes_per_node}
        # Strides: first letter varies fastest.
        stride = 1
        self._strides: dict[str, int] = {}
        for axis in order:
            self._strides[axis] = stride
            stride *= self._extent[axis]
        self.nprocs = stride
        if self.nprocs != partition.nprocs:
            raise ConfigError("mapping does not cover the partition")  # pragma: no cover
        c = self.coords_of(np.arange(self.nprocs, dtype=np.int64))
        self.node_table = c[:, 0] + sx * (c[:, 1] + sy * c[:, 2])
        self.node_table.setflags(write=False)
        self.node_list: list[int] = self.node_table.tolist()

    # -- rank -> coords ------------------------------------------------

    def coords_of(self, ranks: np.ndarray | int) -> np.ndarray:
        """Coordinates for ranks: returns (..., 4) int array (x, y, z, t)."""
        r = np.asarray(ranks, dtype=np.int64)
        if np.any((r < 0) | (r >= self.nprocs)):
            raise ConfigError("rank out of range for partition")
        out = np.empty(r.shape + (4,), dtype=np.int64)
        for i, axis in enumerate("XYZT"):
            out[..., i] = (r // self._strides[axis]) % self._extent[axis]
        return out

    def coord_of(self, rank: int) -> tuple[int, int, int, int]:
        """Scalar convenience wrapper around :meth:`coords_of`."""
        x, y, z, t = self.coords_of(int(rank))
        return int(x), int(y), int(z), int(t)

    # -- coords -> rank ------------------------------------------------

    def rank_of(self, coords: np.ndarray) -> np.ndarray:
        """Ranks for (..., 4) coordinate arrays (inverse of coords_of)."""
        c = np.asarray(coords, dtype=np.int64)
        if c.shape[-1] != 4:
            raise ConfigError("coords must have a trailing dimension of 4 (x, y, z, t)")
        for i, axis in enumerate("XYZT"):
            if np.any((c[..., i] < 0) | (c[..., i] >= self._extent[axis])):
                raise ConfigError("coordinate out of range for partition")
        r = np.zeros(c.shape[:-1], dtype=np.int64)
        for i, axis in enumerate("XYZT"):
            r += c[..., i] * self._strides[axis]
        return r

    def node_of(self, ranks: np.ndarray | int) -> np.ndarray | int:
        """Linear node index (ignoring core) for each rank.

        A Python ``int`` rank gets a Python ``int`` back (the
        per-message path); anything else is indexed as an array.  Both
        range-check first: a bare table index would quietly read rank
        ``-1`` as the last rank.
        """
        if isinstance(ranks, int):
            if 0 <= ranks < self.nprocs:
                return self.node_list[ranks]
            raise ConfigError("rank out of range for partition")
        r = np.asarray(ranks, dtype=np.int64)
        if np.any((r < 0) | (r >= self.nprocs)):
            raise ConfigError("rank out of range for partition")
        return self.node_table[r]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RankMapping {self.order} over {self.partition}>"
