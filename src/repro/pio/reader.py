"""Dataset-level parallel reads: uniform handles over the file formats.

A :class:`DatasetHandle` hides format differences behind four queries —
variable shape, subarray-to-file-range decomposition, whole-variable
covering intervals, and per-process metadata reads.  On top of that,
:func:`collective_read_blocks` is the PnetCDF-like operation the
renderer's I/O stage performs: every rank names its block, the
two-phase machinery reads the file, each rank gets its subvolume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.formats.h5lite import H5LiteFile
from repro.formats.layout import RangeArrays, VariableLayout, range_pairs
from repro.formats.netcdf import NetCDFFile
from repro.formats.raw import RawVolume
from repro.pio.hints import IOHints
from repro.pio.twophase import (
    Interval,
    PendingCollectiveRead,
    TwoPhasePlan,
    TwoPhaseReader,
    plan_two_phase,
)
from repro.storage.accesslog import AccessLog
from repro.storage.store import ByteStore
from repro.storage.stripedfs import StripeConfig, StripedFile
from repro.utils.errors import FormatError

Block = tuple[Sequence[int], Sequence[int]]  # (start, count)


class DatasetHandle:
    """Uniform view of one variable in one file.

    A format's handle names the variable, its ``layout`` and the
    ``store`` holding the file; the range queries are shared.
    """

    name: str
    shape: tuple[int, ...]
    dtype: np.dtype
    layout: VariableLayout
    store: ByteStore

    @property
    def itemsize(self) -> int:
        return self.dtype.itemsize

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape)) * self.itemsize

    def file_size(self) -> int:
        return self.store.size()

    def subarray_file_ranges(self, start: Sequence[int], count: Sequence[int]) -> RangeArrays:
        """A block's file ``(offsets, lengths)`` int64 arrays, in subarray order."""
        return self.layout.subarray_file_ranges(self.shape, start, count, self.itemsize)

    def subarray_ranges(self, start: Sequence[int], count: Sequence[int]) -> Iterator[Interval]:
        """The same ranges as a one-shot iterator of ``(offset, length)`` tuples."""
        return range_pairs(*self.subarray_file_ranges(start, count))

    def covering_intervals(self) -> list[Interval]:
        """Contiguous file intervals holding any of the variable's bytes."""
        return self.layout.covering_intervals()

    def meta_ranges(self) -> list[Interval]:
        """Small metadata reads each process performs at open time."""
        return []

    def decode(self, raw: bytes, count: Sequence[int]) -> np.ndarray:
        """Turn requested bytes (in subarray order) into a native array."""
        raise NotImplementedError


class RawHandle(DatasetHandle):
    """A headerless raw volume: the whole file is the variable."""

    def __init__(self, volume: RawVolume, name: str = "raw"):
        self.volume = volume
        self.name = name
        self.shape = volume.shape
        self.dtype = volume.dtype
        self.layout = volume.layout
        self.store = volume.store

    def decode(self, raw: bytes, count: Sequence[int]) -> np.ndarray:
        arr = np.frombuffer(raw, dtype=self.dtype).astype(self.dtype.newbyteorder("="))
        return arr.reshape(tuple(int(c) for c in count))


class NetCDFHandle(DatasetHandle):
    """One variable of a netCDF classic file (record or non-record)."""

    def __init__(self, ncfile: NetCDFFile, varname: str):
        self.ncfile = ncfile
        self.var = ncfile.variable(varname)
        self.name = varname
        self.shape = self.var.shape
        self.dtype = np.dtype(self.var.dtype.newbyteorder("="))
        assert self.var.layout is not None
        self.layout = self.var.layout
        self.store = ncfile.store

    def meta_ranges(self) -> list[Interval]:
        # Every process parses the header once.
        return [(0, self.ncfile.header_bytes)]

    def decode(self, raw: bytes, count: Sequence[int]) -> np.ndarray:
        arr = np.frombuffer(raw, dtype=self.var.dtype)  # stored big-endian
        return arr.astype(self.dtype).reshape(tuple(int(c) for c in count))

    @property
    def record_bytes(self) -> int:
        """One record slab of this variable — the paper's tuning unit."""
        slab = getattr(self.layout, "slab_bytes", None)
        if slab is None:
            raise FormatError(f"variable {self.name!r} is not a record variable")
        return int(slab)


class H5LiteHandle(DatasetHandle):
    """One dataset of an h5lite (HDF5-like) file."""

    def __init__(self, h5file: H5LiteFile, dsname: str):
        self.h5file = h5file
        self.ds = h5file.dataset(dsname)
        self.name = dsname
        self.shape = self.ds.shape
        self.dtype = np.dtype(np.dtype(self.ds.dtype).newbyteorder("="))
        self.layout = self.ds.layout
        self.store = h5file.store

    def meta_ranges(self) -> list[Interval]:
        return self.h5file.metadata_accesses(self.name)

    def decode(self, raw: bytes, count: Sequence[int]) -> np.ndarray:
        arr = np.frombuffer(raw, dtype=np.dtype(self.ds.dtype))
        return arr.astype(self.dtype).reshape(tuple(int(c) for c in count))


@dataclass
class IOReport:
    """Everything the timing models and benches need about one read."""

    plan: TwoPhasePlan
    requested_bytes: int
    meta_accesses_per_proc: int
    meta_bytes_per_proc: int
    nprocs: int
    file_bytes: int

    @property
    def physical_bytes(self) -> int:
        return self.plan.physical_bytes

    @property
    def density(self) -> float:
        return self.requested_bytes / self.physical_bytes if self.physical_bytes else 0.0

    @property
    def num_accesses(self) -> int:
        return self.plan.num_accesses

    @property
    def mean_access_bytes(self) -> float:
        return self.plan.mean_access_bytes


class AsyncBlockRead:
    """A collective block read split into plan → issue → wait.

    The prefetch primitive of the pipelined time-series renderer: the
    access plan (and hence the :class:`IOReport` the timing models
    price) is available immediately after construction; :meth:`issue`
    performs the physical reads; :meth:`wait` assembles and decodes.
    Metadata accesses are logged at construction and the physical reads
    at issue time, in the exact order the sequential
    :func:`collective_read_blocks` produces — issuing prefetches in
    frame order therefore keeps the access log bitwise identical.
    """

    def __init__(
        self,
        handle: DatasetHandle,
        blocks: Sequence[Block],
        hints: IOHints | None = None,
        stripe: StripeConfig | None = None,
        log: AccessLog | None = None,
    ):
        self.handle = handle
        self.blocks = [(tuple(s), tuple(c)) for s, c in blocks]
        per_rank_ranges = [handle.subarray_file_ranges(start, count) for start, count in blocks]
        self._pending, self.report = _begin_read([handle], per_rank_ranges, hints, stripe, log)
        self._arrays: list[np.ndarray] | None = None

    @property
    def issued(self) -> bool:
        return self._pending.issued

    def issue(self) -> "AsyncBlockRead":
        """Perform the physical reads (phase 1); idempotent."""
        self._pending.issue()
        return self

    def wait(self) -> tuple[list[np.ndarray], IOReport]:
        """Assemble and decode each rank's block; issues first if needed."""
        if self._arrays is None:
            raw_per_rank, _plan = self._pending.wait()
            self._arrays = [
                self.handle.decode(raw, count)
                for raw, (_start, count) in zip(raw_per_rank, self.blocks)
            ]
        return self._arrays, self.report


def collective_read_blocks_async(
    handle: DatasetHandle,
    blocks: Sequence[Block],
    hints: IOHints | None = None,
    stripe: StripeConfig | None = None,
    log: AccessLog | None = None,
) -> AsyncBlockRead:
    """Start a collective block read; returns a plan/issue/wait handle."""
    return AsyncBlockRead(handle, blocks, hints, stripe, log)


def collective_read_blocks(
    handle: DatasetHandle,
    blocks: Sequence[Block],
    hints: IOHints | None = None,
    stripe: StripeConfig | None = None,
    log: AccessLog | None = None,
) -> tuple[list[np.ndarray], IOReport]:
    """Read one block per rank collectively; returns arrays + report.

    ``blocks`` is rank-ordered ``(start, count)`` pairs.  Functional:
    real bytes move.  Metadata reads are charged once per rank and
    logged as ``meta`` accesses.
    """
    return AsyncBlockRead(handle, blocks, hints, stripe, log).issue().wait()


def collective_read_blocks_multi(
    handles: Sequence[DatasetHandle],
    blocks: Sequence[Block],
    hints: IOHints | None = None,
    stripe: StripeConfig | None = None,
    log: AccessLog | None = None,
) -> tuple[list[dict[str, np.ndarray]], IOReport]:
    """Read one block per rank of *several* variables in one collective.

    The paper's multivariate motivation, realized: for netCDF record
    files the variables' needed intervals interleave, so a combined
    read's data density beats per-variable reads — the untuned penalty
    largely vanishes when you want all the variables anyway.

    All handles must view the same file.  Returns each rank's
    ``{variable: array}`` plus one combined :class:`IOReport`.
    """
    if not handles:
        raise FormatError("need at least one variable handle")
    for h in handles[1:]:
        if h.store is not handles[0].store:
            raise FormatError("all variables must live in the same file")
    per_rank_ranges: list[RangeArrays] = []
    per_rank_splits: list[list[int]] = []  # bytes per variable, in order
    for start, count in blocks:
        var_ranges = [h.subarray_file_ranges(start, count) for h in handles]
        per_rank_ranges.append(tuple(np.concatenate(column) for column in zip(*var_ranges)))
        per_rank_splits.append([int(lengths.sum()) for _offsets, lengths in var_ranges])
    pending, report = _begin_read(handles, per_rank_ranges, hints, stripe, log)
    raw_per_rank, _plan = pending.issue().wait()
    out: list[dict[str, np.ndarray]] = []
    for raw, splits, (_start, count) in zip(raw_per_rank, per_rank_splits, blocks):
        pos = 0
        rank_vars: dict[str, np.ndarray] = {}
        for h, nbytes in zip(handles, splits):
            rank_vars[h.name] = h.decode(raw[pos : pos + nbytes], count)
            pos += nbytes
        out.append(rank_vars)
    return out, report


def plan_read_blocks(
    handle: DatasetHandle,
    nprocs: int,
    hints: IOHints | None = None,
) -> IOReport:
    """Planning-only variant for paper-scale (virtual) files.

    Collectively, the ranks read the whole variable, so the needed set
    is the variable's covering intervals — no per-rank enumeration.
    """
    plan = plan_two_phase(handle.covering_intervals(), hints or IOHints(), handle.file_size())
    return _report(plan, handle.nbytes, handle.meta_ranges(), nprocs, handle)


def _begin_read(
    handles: Sequence[DatasetHandle],
    per_rank_ranges: Sequence[RangeArrays],
    hints: IOHints | None,
    stripe: StripeConfig | None,
    log: AccessLog | None,
) -> tuple[PendingCollectiveRead, IOReport]:
    """Plan one collective read of ``handles``' file; log each rank's metadata.

    Every rank opens every variable, so each rank's metadata reads —
    deduplicated across the variables, in handle order — are logged
    before any physical read.
    """
    first = handles[0]
    log = log if log is not None else AccessLog()
    meta = list(dict.fromkeys(rng for h in handles for rng in h.meta_ranges()))
    for _rank in range(len(per_rank_ranges)):
        for off, ln in meta:
            log.record(off, ln, kind="meta")
    reader = TwoPhaseReader(StripedFile(first.store, stripe, name=first.name), hints, log)
    pending = reader.begin_collective_read(per_rank_ranges)
    requested = sum(int(lengths.sum()) for _offsets, lengths in per_rank_ranges)
    return pending, _report(pending.plan, requested, meta, len(per_rank_ranges), first)


def _report(
    plan: TwoPhasePlan,
    requested_bytes: int,
    meta: Sequence[Interval],
    nprocs: int,
    handle: DatasetHandle,
) -> IOReport:
    return IOReport(
        plan=plan,
        requested_bytes=requested_bytes,
        meta_accesses_per_proc=len(meta),
        meta_bytes_per_proc=sum(l for _o, l in meta),
        nprocs=nprocs,
        file_bytes=handle.file_size(),
    )
