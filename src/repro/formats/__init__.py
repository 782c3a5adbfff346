"""File formats implemented from scratch.

* :mod:`repro.formats.netcdf` — the netCDF classic binary format
  (CDF-1, CDF-2 64-bit-offset, and CDF-5 64-bit-data), both writer and
  reader, with record and non-record variables.  CDF-1/2 output is
  validated against ``scipy.io.netcdf_file`` in the test suite.
* :mod:`repro.formats.h5lite` — a simplified HDF5-like container:
  per-variable contiguous data plus small per-variable metadata blocks
  (reproducing the "11 very small metadata accesses" behaviour the
  paper reports for HDF5).
* :mod:`repro.formats.raw` — headerless raw volumes (the paper's
  preprocessed single-variable files).
* :mod:`repro.formats.layout` — where a variable's bytes live in a
  file, and how 3D subarrays decompose into contiguous file ranges;
  the foundation of all I/O planning.
"""

from repro.formats.layout import (
    ContiguousLayout,
    RecordLayout,
    VariableLayout,
    subarray_run_offsets,
    subarray_runs,
    subarray_run_stats,
)
from repro.formats.netcdf import (
    NetCDFWriter,
    NetCDFFile,
    NCVariable,
    NCDimension,
    NC_BYTE,
    NC_CHAR,
    NC_SHORT,
    NC_INT,
    NC_FLOAT,
    NC_DOUBLE,
)
from repro.formats.raw import RawVolume
from repro.formats.h5lite import H5LiteWriter, H5LiteFile

__all__ = [
    "ContiguousLayout",
    "RecordLayout",
    "VariableLayout",
    "subarray_run_offsets",
    "subarray_runs",
    "subarray_run_stats",
    "NetCDFWriter",
    "NetCDFFile",
    "NCVariable",
    "NCDimension",
    "NC_BYTE",
    "NC_CHAR",
    "NC_SHORT",
    "NC_INT",
    "NC_FLOAT",
    "NC_DOUBLE",
    "RawVolume",
    "H5LiteWriter",
    "H5LiteFile",
]
