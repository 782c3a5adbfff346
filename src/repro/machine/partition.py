"""Partitions: the subset of the machine a job runs on.

Blue Gene partitions come in fixed torus shapes.  A midplane (512
nodes) is an 8x8x8 torus; larger partitions stack midplanes.  Below a
midplane the network is a mesh rather than a torus, which the network
model accounts for via the ``is_torus`` flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.machine.specs import BGP_ALCF, MachineSpec
from repro.utils.errors import ConfigError
from repro.utils.validation import check_positive

#: Node-count -> torus shape for the standard ALCF partition sizes.
#: Shapes for >= 512 nodes are true tori; smaller ones are meshes.
STANDARD_PARTITIONS: dict[int, tuple[int, int, int]] = {
    16: (2, 2, 4),
    32: (2, 4, 4),
    64: (4, 4, 4),
    128: (4, 4, 8),
    256: (4, 8, 8),
    512: (8, 8, 8),
    1024: (8, 8, 16),
    2048: (8, 16, 16),
    4096: (16, 16, 16),
    8192: (16, 16, 32),
    16384: (16, 32, 32),
    32768: (32, 32, 32),
    40960: (32, 32, 40),
}

#: Smallest partition that is wired as a torus (one midplane).
TORUS_THRESHOLD_NODES = 512


def torus_shape_for_nodes(nodes: int) -> tuple[int, int, int]:
    """Return the torus/mesh shape for a node count.

    Uses the standard partition table when possible; otherwise factors
    the count into the most cubic box its prime factorization allows
    (greedy largest-factor-first onto the smallest dimension, which
    keeps factor-rich counts like 96 → (4, 4, 6) or 6000 → (15, 20, 20)
    near-cubic).

    **Degenerate counts.** The shape can only be as cubic as the
    factorization permits: a prime count *p* has no factorization other
    than ``(1, 1, p)``, so primes (and near-primes like ``2·p``) come
    back as chain/slab shapes.  That is geometry, not a bug — no real
    Blue Gene partition has such a count, and the control system (here,
    :func:`repro.farm.allocator.standard_size_for`) only ever boots the
    :data:`STANDARD_PARTITIONS` sizes.  The fallback exists for what-if
    modeling of non-standard counts; callers that need a well-shaped
    network should round to a standard size first.  The guarantees this
    function *does* make for every count (pinned by
    ``tests/machine/test_partition.py``): the dims multiply to exactly
    ``nodes``, are sorted ascending, and no chain shape is returned for
    any count whose factorization admits something better.
    """
    check_positive("nodes", nodes)
    if nodes in STANDARD_PARTITIONS:
        return STANDARD_PARTITIONS[nodes]
    # General fallback: split prime factors round-robin, largest first.
    dims = [1, 1, 1]
    n = nodes
    f = 2
    factors: list[int] = []
    while f * f <= n:
        while n % f == 0:
            factors.append(f)
            n //= f
        f += 1
    if n > 1:
        factors.append(n)
    for p in sorted(factors, reverse=True):
        dims[int(np.argmin(dims))] *= p
    return tuple(sorted(dims))  # type: ignore[return-value]


@dataclass(frozen=True)
class Partition:
    """A job's slice of the machine: nodes in a 3D torus, ranks on cores.

    ``processes_per_node`` mirrors the BG/P execution modes: 1 (SMP),
    2 (dual), or 4 (VN — virtual node, the mode used for the paper's
    core counts, e.g. 32K cores = 8K nodes).
    """

    nodes: int
    processes_per_node: int = 4
    machine: MachineSpec = field(default_factory=lambda: BGP_ALCF)
    shape: tuple[int, int, int] | None = None

    def __post_init__(self) -> None:
        check_positive("nodes", self.nodes)
        if self.processes_per_node not in (1, 2, 4):
            raise ConfigError(
                f"processes_per_node must be 1, 2, or 4 (BG/P modes), got {self.processes_per_node}"
            )
        if self.nodes > self.machine.total_nodes:
            raise ConfigError(
                f"partition of {self.nodes} nodes exceeds machine size "
                f"{self.machine.total_nodes}"
            )
        shape = self.shape or torus_shape_for_nodes(self.nodes)
        sx, sy, sz = shape
        if sx * sy * sz != self.nodes:
            raise ConfigError(f"shape {shape} does not cover {self.nodes} nodes")
        object.__setattr__(self, "shape", (int(sx), int(sy), int(sz)))

    @classmethod
    def for_cores(cls, cores: int, processes_per_node: int = 4) -> "Partition":
        """ALCF's partition hosting ``cores`` MPI processes (one per core)."""
        check_positive("cores", cores)
        if cores % processes_per_node:
            raise ConfigError(
                f"{cores} cores not divisible by {processes_per_node} processes/node"
            )
        return cls(cores // processes_per_node, processes_per_node, BGP_ALCF)

    @property
    def nprocs(self) -> int:
        """Total MPI processes (== cores in use)."""
        return self.nodes * self.processes_per_node

    @property
    def is_torus(self) -> bool:
        """True when links wrap around (partitions of a midplane or more)."""
        return self.nodes >= TORUS_THRESHOLD_NODES

    @property
    def io_nodes(self) -> int:
        return self.machine.io_nodes_for(self.nodes)

    @property
    def ram_per_process(self) -> int:
        return self.machine.node.ram_per_process(self.processes_per_node)

    @property
    def total_ram_bytes(self) -> int:
        return self.nodes * self.machine.node.ram_bytes

    def __str__(self) -> str:
        kind = "torus" if self.is_torus else "mesh"
        return (
            f"Partition({self.nodes} nodes {self.shape} {kind}, "
            f"{self.processes_per_node} ppn, {self.nprocs} procs, "
            f"{self.io_nodes} ION)"
        )
