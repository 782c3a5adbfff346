"""Torus/mesh topology, dimension-ordered routing, and link-load maps.

The torus is the partition's node grid.  Links are unidirectional; the
link leaving node ``(x, y, z)`` in direction ``+X`` is distinct from the
one entering it.  Dimension-ordered (e-cube) routing moves a packet
first along X, then Y, then Z, choosing the shorter wrap direction on a
torus (no wrap on a mesh partition).

``hop_row`` gives the DES transports their per-message hop counts.
``link_loads`` is a diagnostic, not a price: given vectors of
source/destination nodes and message sizes, it accumulates the byte and
message load on every link without Python-level loops over hops (the
raw material for per-link load histograms).  Neither the DES nor the
composite model prices congestion from it; the contention law in
:mod:`repro.network.costs` is empirical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.errors import ConfigError
from repro.utils.validation import check_shape3


@dataclass(frozen=True)
class LinkLoads:
    """Per-link loads accumulated over one communication phase.

    ``bytes_per_link``/``msgs_per_link`` are arrays of length
    ``topology.num_links``.
    """

    bytes_per_link: np.ndarray
    msgs_per_link: np.ndarray

    @property
    def total_bytes(self) -> int:
        """Total byte-hops (sum over links of bytes crossing them)."""
        return int(self.bytes_per_link.sum())


class TorusTopology:
    """A 3D torus (or mesh) of compute nodes with e-cube routing."""

    NUM_DIRS = 6  # +x, -x, +y, -y, +z, -z

    def __init__(self, shape: tuple[int, int, int], torus: bool = True):
        self.shape = check_shape3("torus shape", shape)
        self.torus = bool(torus)
        self.num_nodes = int(np.prod(self.shape))
        self.num_links = self.num_nodes * self.NUM_DIRS
        # Lazily built per-source-node hop-distance rows (hop_row).
        self._hop_rows: dict[int, np.ndarray] = {}

    # -- coordinates ----------------------------------------------------

    def node_index(self, coords: np.ndarray) -> np.ndarray:
        """Linear node index for (..., 3) coordinate arrays."""
        c = np.asarray(coords, dtype=np.int64)
        sx, sy, sz = self.shape
        if np.any((c < 0) | (c >= np.array(self.shape))):
            raise ConfigError("node coordinate out of range")
        return c[..., 0] + sx * (c[..., 1] + sy * c[..., 2])

    def node_coords(self, index: np.ndarray | int) -> np.ndarray:
        """(..., 3) coordinates for linear node indices."""
        i = np.asarray(index, dtype=np.int64)
        if np.any((i < 0) | (i >= self.num_nodes)):
            raise ConfigError("node index out of range")
        sx, sy, _sz = self.shape
        out = np.empty(i.shape + (3,), dtype=np.int64)
        out[..., 0] = i % sx
        out[..., 1] = (i // sx) % sy
        out[..., 2] = i // (sx * sy)
        return out

    def link_id(self, node_index: np.ndarray, dim: np.ndarray, positive: np.ndarray) -> np.ndarray:
        """Link id for the link leaving ``node_index`` along ``dim`` (+/-)."""
        return (
            np.asarray(node_index, dtype=np.int64) * self.NUM_DIRS
            + np.asarray(dim, dtype=np.int64) * 2
            + np.asarray(positive, dtype=np.int64)
        )

    # -- distances and routes -------------------------------------------

    def signed_steps(self, a: np.ndarray, b: np.ndarray, dim: int) -> np.ndarray:
        """Signed hop count along one dimension from a to b (shortest way).

        On a torus the wrap direction may be chosen; ties (exactly half
        way) break toward +.  On a mesh the step is simply ``b - a``.
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        k = self.shape[dim]
        d = b - a
        if not self.torus:
            return d
        d = np.mod(d, k)
        # Choose the shorter direction; d in [0, k).
        return np.where(d <= k // 2, d, d - k)

    def hop_count(self, src_nodes: np.ndarray, dst_nodes: np.ndarray) -> np.ndarray:
        """Total routed hops between node indices (vectorized)."""
        a = self.node_coords(src_nodes)
        b = self.node_coords(dst_nodes)
        total = np.zeros(np.broadcast(a[..., 0], b[..., 0]).shape, dtype=np.int64)
        for dim in range(3):
            total = total + np.abs(self.signed_steps(a[..., dim], b[..., dim], dim))
        return total

    def hop_row(self, src_node: int) -> np.ndarray:
        """Routed hop counts from ``src_node`` to *every* node.

        Rows are memoized on the topology (built vectorized on first
        use, read-only thereafter), so per-message transports look up
        distances in O(1) instead of re-running shortest-path math.
        ``int32`` keeps a fully populated 4096-node table at 64 MB
        instead of 128.
        """
        row = self._hop_rows.get(src_node)
        if row is None:
            if not 0 <= src_node < self.num_nodes:
                raise ConfigError("node index out of range")
            row = self.hop_count(
                np.int64(src_node), np.arange(self.num_nodes, dtype=np.int64)
            ).astype(np.int32)
            row.setflags(write=False)
            self._hop_rows[int(src_node)] = row
        return row

    def route(self, src_node: int, dst_node: int) -> list[int]:
        """Explicit ordered list of link ids for one message (scalar).

        The hop-by-hop oracle the tests hold :meth:`link_loads` to.
        """
        pos = list(self.node_coords(int(src_node)))
        dst = list(self.node_coords(int(dst_node)))
        links: list[int] = []
        for dim in range(3):
            step = int(self.signed_steps(pos[dim], dst[dim], dim))
            direction = 1 if step > 0 else 0
            for _ in range(abs(step)):
                node = int(self.node_index(np.array(pos)))
                links.append(int(self.link_id(node, dim, direction)))
                pos[dim] = (pos[dim] + (1 if step > 0 else -1)) % self.shape[dim]
        return links

    def link_loads(
        self,
        src_nodes: np.ndarray,
        dst_nodes: np.ndarray,
        nbytes: np.ndarray,
        chunk: int = 1 << 18,
    ) -> LinkLoads:
        """Accumulate per-link byte/message loads for many messages.

        Fully vectorized dimension-ordered routing: for each dimension,
        each message contributes to ``|steps|`` consecutive links.  The
        expansion is chunked to bound peak memory.
        """
        src = np.atleast_1d(np.asarray(src_nodes, dtype=np.int64))
        dst = np.atleast_1d(np.asarray(dst_nodes, dtype=np.int64))
        sizes = np.broadcast_to(np.asarray(nbytes, dtype=np.int64), src.shape)
        if src.shape != dst.shape:
            raise ConfigError("src/dst arrays must have matching shapes")
        bytes_per_link = np.zeros(self.num_links, dtype=np.int64)
        msgs_per_link = np.zeros(self.num_links, dtype=np.int64)
        for lo in range(0, src.size, chunk):
            hi = min(lo + chunk, src.size)
            self._accumulate(src[lo:hi], dst[lo:hi], sizes[lo:hi], bytes_per_link, msgs_per_link)
        return LinkLoads(bytes_per_link, msgs_per_link)

    def _accumulate(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        sizes: np.ndarray,
        bytes_per_link: np.ndarray,
        msgs_per_link: np.ndarray,
    ) -> None:
        a = self.node_coords(src)  # (N, 3); mutated per-dim as routing proceeds
        b = self.node_coords(dst)
        cur = a.copy()
        for dim in range(3):
            steps = self.signed_steps(cur[:, dim], b[:, dim], dim)
            nsteps = np.abs(steps)
            total = int(nsteps.sum())
            if total:
                # Hop index 0..nsteps-1 for every message, flattened.
                msg_idx = np.repeat(np.arange(src.size), nsteps)
                hop = np.arange(total) - np.repeat(np.cumsum(nsteps) - nsteps, nsteps)
                sign = np.repeat(np.sign(steps), nsteps)
                coord = np.mod(cur[msg_idx, dim] + sign * hop, self.shape[dim])
                # Node the hop leaves from: current position with this
                # dim replaced by the hop coordinate.
                nodes = cur[msg_idx].copy()
                nodes[:, dim] = coord
                link = self.link_id(self.node_index(nodes), dim, (sign > 0).astype(np.int64))
                np.add.at(bytes_per_link, link, sizes[msg_idx])
                np.add.at(msgs_per_link, link, 1)
            # Message has now arrived at the destination coordinate in dim.
            cur[:, dim] = b[:, dim]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "torus" if self.torus else "mesh"
        return f"<TorusTopology {self.shape} {kind}, {self.num_nodes} nodes>"

