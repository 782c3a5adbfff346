"""Parallel I/O middleware: MPI-IO style collective reads.

Implements the ROMIO-style two-phase collective read the paper studies:
aggregator processes read large contiguous windows of the file and
redistribute the requested pieces (Sec. III-B1, V-A).  The physical
access pattern — which windows are read, at what size — is what
produces the paper's data-density results, so the planner here is exact
at paper scale (it enumerates windows, never per-element offsets).

* :mod:`repro.pio.hints` — MPI-IO hints (``cb_buffer_size``,
  ``cb_nodes``), with the tuned-PnetCDF recipe.
* :mod:`repro.pio.twophase` — interval algebra, the two-phase planner,
  and functional execution against real byte stores.
* :mod:`repro.pio.reader` — dataset-level facade: uniform handles over
  raw / netCDF / h5lite variables, collective block reads, I/O reports.
"""

from repro.pio.hints import IOHints, tuned_netcdf_hints
from repro.pio.twophase import (
    merge_intervals,
    TwoPhasePlan,
    plan_two_phase,
    PendingCollectiveRead,
    TwoPhaseReader,
)
from repro.pio.reader import (
    DatasetHandle,
    RawHandle,
    NetCDFHandle,
    H5LiteHandle,
    IOReport,
    AsyncBlockRead,
    collective_read_blocks,
    collective_read_blocks_async,
    collective_read_blocks_multi,
    plan_read_blocks,
)

__all__ = [
    "IOHints",
    "tuned_netcdf_hints",
    "merge_intervals",
    "TwoPhasePlan",
    "plan_two_phase",
    "PendingCollectiveRead",
    "TwoPhaseReader",
    "DatasetHandle",
    "RawHandle",
    "NetCDFHandle",
    "H5LiteHandle",
    "IOReport",
    "AsyncBlockRead",
    "collective_read_blocks",
    "collective_read_blocks_async",
    "collective_read_blocks_multi",
    "plan_read_blocks",
]
