"""MPI-IO hints, as passed to ROMIO on the real machine (Sec. III-B1).

The defaults model the BG/P installation's collective-buffering setup:
16 MiB collective buffers and one aggregator set sized from the
partition's I/O nodes.  ``tuned_netcdf_hints`` is the paper's tuning:
collective buffer set exactly to the netCDF record size so buffer
windows stop straddling unneeded records (Sec. V-A).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.utils.units import MIB
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class IOHints:
    """Knobs of the collective read path."""

    cb_buffer_size: int = 16 * MIB  # collective buffer (round window) size
    cb_nodes: int = 8  # number of I/O aggregators

    def __post_init__(self) -> None:
        check_positive("cb_buffer_size", self.cb_buffer_size)
        check_positive("cb_nodes", self.cb_nodes)

    def with_buffer(self, cb_buffer_size: int) -> "IOHints":
        return replace(self, cb_buffer_size=int(cb_buffer_size))


def tuned_netcdf_hints(record_bytes: int, base: IOHints | None = None) -> IOHints:
    """The paper's tuning: collective buffer == one netCDF record slab.

    For the 1120^3 dataset that is 1120*1120*4 bytes (one 2D slice),
    which aligned buffer windows with record boundaries and "improved
    the netCDF I/O performance in some cases by a factor of two".
    """
    check_positive("record_bytes", record_bytes)
    return (base or IOHints()).with_buffer(record_bytes)
