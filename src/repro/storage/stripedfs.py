"""The striped parallel file system model (PVFS/GPFS-like).

Files are striped round-robin across file servers in fixed-size stripe
units.  The paper's installation: 17 SAN racks x 8 servers = 136 file
servers, 4.3 PB total, ~5.5 GB/s peak per SAN, ~50 GB/s aggregate peak.

:class:`StripedFile` answers the question the I/O models ask: *given a
physical access (offset, length), which servers serve which bytes?* —
vectorized over many accesses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.storage.store import ByteStore
from repro.utils.units import GB, MIB, TB
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class StripeConfig:
    """How a file spreads over servers."""

    stripe_size: int = 4 * MIB
    num_servers: int = 136

    def __post_init__(self) -> None:
        check_positive("stripe_size", self.stripe_size)
        check_positive("num_servers", self.num_servers)

    def server_of(self, offset: np.ndarray | int) -> np.ndarray | int:
        """Server index holding the byte at ``offset``."""
        o = np.asarray(offset, dtype=np.int64)
        s = (o // self.stripe_size) % self.num_servers
        return int(s) if s.ndim == 0 else s


@dataclass(frozen=True)
class StorageSystem:
    """The whole installation: SANs, servers, capacity, peak rates."""

    num_sans: int = 17
    servers_per_san: int = 8
    capacity_bytes: int = int(4.3e3) * TB
    peak_bw_per_san_Bps: float = 5.5 * GB

    @property
    def num_servers(self) -> int:
        return self.num_sans * self.servers_per_san

    @property
    def peak_aggregate_Bps(self) -> float:
        """Theoretical aggregate peak (the paper measured ~50 GB/s)."""
        return self.num_sans * self.peak_bw_per_san_Bps

    def san_of_server(self, server: np.ndarray | int) -> np.ndarray | int:
        s = np.asarray(server, dtype=np.int64) // self.servers_per_san
        return int(s) if s.ndim == 0 else s

    def describe(self) -> str:
        """Human-readable inventory (used by the Fig. 2 bench)."""
        from repro.utils.units import fmt_bandwidth, fmt_bytes

        return (
            f"{self.num_sans} SANs x {self.servers_per_san} servers = "
            f"{self.num_servers} file servers, {fmt_bytes(self.capacity_bytes)} total, "
            f"{fmt_bandwidth(self.peak_bw_per_san_Bps)} peak/SAN, "
            f"{fmt_bandwidth(self.peak_aggregate_Bps)} aggregate peak"
        )


class StripedFile:
    """A file laid out on the striped file system.

    Wraps a :class:`ByteStore` with striping metadata; the two-phase
    I/O layer reads through this object so every physical access can be
    attributed to servers.
    """

    def __init__(self, store: ByteStore, stripe: StripeConfig | None = None, name: str = ""):
        self.store = store
        self.stripe = stripe or StripeConfig()
        self.name = name

    def size(self) -> int:
        return self.store.size()

    def read(self, offset: int, length: int) -> bytes:
        return self.store.read(offset, length)

    def server_segments(
        self, offsets: np.ndarray, lengths: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Split accesses at stripe boundaries: (servers, seg_lengths).

        Returns flat arrays over all resulting segments; used to compute
        per-server byte loads for many accesses at once.
        """
        off = np.atleast_1d(np.asarray(offsets, dtype=np.int64))
        ln = np.atleast_1d(np.asarray(lengths, dtype=np.int64))
        ss = self.stripe.stripe_size
        first = off // ss
        last = (off + np.maximum(ln, 1) - 1) // ss
        nseg = (last - first + 1).astype(np.int64)
        total = int(nseg.sum())
        acc_idx = np.repeat(np.arange(off.size), nseg)
        seg_in_acc = np.arange(total) - np.repeat(np.cumsum(nseg) - nseg, nseg)
        stripe_idx = first[acc_idx] + seg_in_acc
        seg_start = np.maximum(stripe_idx * ss, off[acc_idx])
        seg_end = np.minimum((stripe_idx + 1) * ss, off[acc_idx] + ln[acc_idx])
        seg_len = np.maximum(seg_end - seg_start, 0)
        servers = (stripe_idx % self.stripe.num_servers).astype(np.int64)
        return servers, seg_len

    def per_server_bytes(self, offsets: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Total bytes each server must deliver for these accesses."""
        servers, seg_len = self.server_segments(offsets, lengths)
        out = np.zeros(self.stripe.num_servers, dtype=np.int64)
        np.add.at(out, servers, seg_len)
        return out
