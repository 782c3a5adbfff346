"""In-core feasibility: the paper's memory argument, made checkable.

"With collective I/O, the total memory footprint of the entire machine
(80 TB) dictates the maximum data that can be processed in-core,
without resorting to processing the data in serial chunks."
(Sec. III-B1.)  The paper's runs are "the largest structured grid
volume data ... published thus far without resorting to out-of-core
methods" — this module prices what a frame keeps resident per process
and decides whether a configuration fits.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compositing.policy import PAPER_POLICY, CompositorPolicy
from repro.machine.partition import Partition
from repro.model.pipeline import PaperDataset
from repro.utils.errors import ConfigError
from repro.utils.units import fmt_bytes

#: Working-space factor on top of the raw block: the render-time copy,
#: decode buffers, and MPI staging (empirically ~2x in codes like this).
WORKSPACE_FACTOR = 2.0

#: Core counts :func:`min_cores_in_core` tries, smallest first.
CORE_CANDIDATES = (64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768)


@dataclass(frozen=True)
class MemoryEstimate:
    """Resident bytes per process for one frame configuration."""

    block_bytes: int  # owned block + ghost layer
    image_bytes: int  # partial image + (compositors) one tile
    workspace_bytes: int
    budget_bytes: int  # RAM per process on the partition

    @property
    def total_bytes(self) -> int:
        return self.block_bytes + self.image_bytes + self.workspace_bytes

    @property
    def fits(self) -> bool:
        return self.total_bytes <= self.budget_bytes

    @property
    def utilization(self) -> float:
        return self.total_bytes / self.budget_bytes

    def __str__(self) -> str:
        verdict = "fits" if self.fits else "DOES NOT FIT"
        return (
            f"{fmt_bytes(self.total_bytes)} / {fmt_bytes(self.budget_bytes)} "
            f"per process ({100 * self.utilization:.0f}%) — {verdict}"
        )


def frame_memory(
    dataset: PaperDataset,
    cores: int,
    ghost: int = 1,
    policy: CompositorPolicy = PAPER_POLICY,
    processes_per_node: int = 4,
) -> MemoryEstimate:
    """Per-process resident memory for one frame of this dataset."""
    if cores < 1:
        raise ConfigError(f"need at least one core, got {cores}")
    partition = Partition.for_cores(cores, processes_per_node)
    side = dataset.grid / round(cores ** (1 / 3))
    block_side = side + 2 * ghost
    block_bytes = int(block_side**3 * 4)
    m = policy.compositors_for(cores)
    # Partial image over the block footprint + (if compositing) a tile.
    footprint_px = int((dataset.image / max(round(cores ** (1 / 3)), 1)) ** 2 * 2.0)
    tile_px = dataset.image**2 // m
    image_bytes = (footprint_px + tile_px) * 16
    workspace = int((block_bytes + image_bytes) * (WORKSPACE_FACTOR - 1.0))
    return MemoryEstimate(
        block_bytes=block_bytes,
        image_bytes=image_bytes,
        workspace_bytes=workspace,
        budget_bytes=partition.ram_per_process,
    )


def min_cores_in_core(dataset: PaperDataset) -> int:
    """Smallest of :data:`CORE_CANDIDATES` that holds the frame in core."""
    for cores in CORE_CANDIDATES:
        if frame_memory(dataset, cores).fits:
            return cores
    raise ConfigError(
        f"dataset {dataset.name} does not fit in core on any candidate partition"
    )
