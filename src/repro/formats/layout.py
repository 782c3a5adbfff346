"""Variable layouts and subarray-to-file-range decomposition.

A *layout* maps a variable's logical byte space (row-major element
order) to file offsets.  Two shapes cover every format here:

* :class:`ContiguousLayout` — one solid extent (raw files, netCDF
  non-record variables, h5lite datasets),
* :class:`RecordLayout` — netCDF record variables: one slab per record,
  slabs separated by the full record stride of *all* record variables
  (the interleaving of Fig. 8).

``subarray_run_offsets`` turns an N-D subarray request into contiguous
runs in the variable's byte space; the layout then maps runs to file
ranges.  Both are ``int64`` array arithmetic: a block's ranges stay an
``(offsets, lengths)`` pair of arrays until :class:`ReadBuffers` cuts
them out of the bytes physically read.  ``subarray_runs`` and
``file_ranges`` are tuple-yielding views of the same arrays.
``subarray_run_stats`` computes the same aggregate numbers (run count,
run length, total bytes) arithmetically — what the paper-scale analytic
model uses, since enumerating 25M ranges for a 4480-cubed read is
neither necessary nor wise.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, Sequence

import numpy as np

from repro.storage.store import ByteStore
from repro.utils.errors import FormatError, StorageError

RangeArrays = tuple[np.ndarray, np.ndarray]  # (offsets, lengths), both int64

_EMPTY = np.empty(0, dtype=np.int64)


def range_pairs(offsets: np.ndarray, lengths: np.ndarray) -> Iterator[tuple[int, int]]:
    """The ``(offset, length)`` tuples of Python ints behind two arrays."""
    return zip(offsets.tolist(), lengths.tolist())


class VariableLayout:
    """Interface: map variable byte space -> file byte space.

    A layout implements ``_map_runs`` (arrays in, arrays out) and
    :meth:`covering_intervals`; the other queries derive from those
    here, once for every format.
    """

    nbytes: int
    _kind = "variable"

    def map_runs(self, offsets: np.ndarray, run_len: int) -> RangeArrays:
        """File ``(offsets, lengths)`` of equal-length runs at ``offsets``.

        Pieces come out in run order, and within a run in ascending
        order; a run outside ``[0, nbytes)`` is a :class:`FormatError`.
        """
        if offsets.size == 0:
            return _EMPTY, _EMPTY
        lo, hi = int(offsets.min()), int(offsets.max())
        if lo < 0 or run_len < 0 or hi + run_len > self.nbytes:
            at = lo if lo < 0 else hi
            raise FormatError(
                f"range [{at}, {at + run_len}) outside {self._kind} of {self.nbytes} bytes"
            )
        return self._map_runs(offsets, run_len) if run_len else (_EMPTY, _EMPTY)

    def _map_runs(self, offsets: np.ndarray, run_len: int) -> RangeArrays:
        raise NotImplementedError

    def file_ranges(self, var_offset: int, length: int) -> Iterator[tuple[int, int]]:
        """(file_offset, length) tuples covering [var_offset, var_offset+length)."""
        return range_pairs(*self.map_runs(np.array([var_offset], dtype=np.int64), length))

    def subarray_file_ranges(
        self, shape: Sequence[int], start: Sequence[int], count: Sequence[int], itemsize: int
    ) -> RangeArrays:
        """File ``(offsets, lengths)`` a hyperslab read must touch, in row-major order."""
        return self.map_runs(*subarray_run_offsets(shape, start, count, itemsize))

    def covering_intervals(self) -> list[tuple[int, int]]:
        """Contiguous file intervals that hold any of this variable's bytes."""
        raise NotImplementedError


@dataclass(frozen=True)
class ContiguousLayout(VariableLayout):
    """The variable occupies one solid extent starting at ``begin``."""

    begin: int
    nbytes: int

    def _map_runs(self, offsets: np.ndarray, run_len: int) -> RangeArrays:
        return offsets + self.begin, np.full(offsets.size, run_len, dtype=np.int64)

    def covering_intervals(self) -> list[tuple[int, int]]:
        return [(self.begin, self.nbytes)] if self.nbytes else []


@dataclass(frozen=True)
class RecordLayout(VariableLayout):
    """One slab of ``slab_bytes`` per record, every ``stride_bytes``.

    ``begin`` is the slab's offset within record 0.  The variable's
    logical byte space is the concatenation of its slabs (without the
    inter-slab padding, which is ``slab_padded - slab_bytes``).
    """

    begin: int
    slab_bytes: int
    stride_bytes: int
    num_records: int
    _kind = "record variable"

    def __post_init__(self) -> None:
        if self.slab_bytes < 0 or self.num_records < 0:
            raise FormatError("negative slab size or record count")
        if self.stride_bytes < self.slab_bytes:
            raise FormatError(
                f"record stride {self.stride_bytes} smaller than slab {self.slab_bytes}"
            )

    @property
    def nbytes(self) -> int:  # type: ignore[override]
        return self.slab_bytes * self.num_records

    def _map_runs(self, offsets: np.ndarray, run_len: int) -> RangeArrays:
        slab = self.slab_bytes
        rec, within = np.divmod(offsets, slab)
        if run_len <= slab - int(within.max()):  # every run stays inside its slab
            first = rec * self.stride_bytes + (within + self.begin)
            return first, np.full(offsets.size, run_len, dtype=np.int64)
        # Runs cross slab boundaries (a block of whole y*x planes over
        # several z records): one piece per slab touched, never joined
        # across slabs even when the stride leaves no padding.
        pieces = (within + (run_len + slab - 1)) // slab
        run = np.repeat(np.arange(offsets.size), pieces)
        rec = rec[run] + (np.arange(run.size) - np.repeat(np.cumsum(pieces) - pieces, pieces))
        lo = np.maximum(offsets[run], rec * slab)
        hi = np.minimum(offsets[run] + run_len, (rec + 1) * slab)
        return rec * (self.stride_bytes - slab) + (lo + self.begin), hi - lo

    def covering_intervals(self) -> list[tuple[int, int]]:
        return [
            (self.begin + r * self.stride_bytes, self.slab_bytes)
            for r in range(self.num_records)
            if self.slab_bytes
        ]


class ReadBuffers:
    """Bytes physically read, from which requested ranges are cut.

    ``buffers`` are disjoint ``(file_offset, data)`` reads in any order.
    File-adjacent buffers are joined into solid groups, so a range may
    straddle the reads that happen to cover it; a range that leaves its
    group is a :class:`StorageError` naming the first byte nobody read.
    """

    def __init__(self, buffers: Sequence[tuple[int, bytes]]):
        buffers = sorted(buffers, key=itemgetter(0))
        starts = np.array([off for off, _data in buffers], dtype=np.int64)
        ends = starts + np.array([len(data) for _off, data in buffers], dtype=np.int64)
        opens = np.ones(len(buffers), dtype=bool)  # buffer starts a new group
        opens[1:] = starts[1:] != ends[:-1]
        closes = np.ones(len(buffers), dtype=bool)
        closes[:-1] = opens[1:]
        self._starts = starts[opens]
        self._ends = ends[closes]
        # file offset + shift = position in the joined data
        sizes = self._ends - self._starts
        self._shift = np.cumsum(sizes) - sizes - self._starts
        self._data = memoryview(b"".join([data for _off, data in buffers]))

    def gather(self, offsets: np.ndarray, lengths: np.ndarray) -> bytes:
        """The bytes of each ``[offset, offset+length)``, concatenated in order."""
        wanted = lengths > 0
        if not wanted.all():  # an empty range needs no read behind it
            offsets, lengths = offsets[wanted], lengths[wanted]
        group = np.searchsorted(self._starts, offsets, side="right") - 1
        inside = group >= 0
        inside[inside] = (offsets + lengths)[inside] <= self._ends[group[inside]]
        if not inside.all():
            k = int(inside.argmin())
            if group[k] < 0:
                raise StorageError(
                    f"requested byte {int(offsets[k])} was not covered by any physical read"
                )
            hole = max(int(offsets[k]), int(self._ends[group[k]]))
            raise StorageError(f"requested byte {hole} falls in a hole between physical reads")
        lo = offsets + self._shift[group]
        data = self._data
        return b"".join([data[a:b] for a, b in zip(lo.tolist(), (lo + lengths).tolist())])


def read_ranges(store: ByteStore, offsets: np.ndarray, lengths: np.ndarray) -> bytes:
    """Read the span the ranges cover once and cut the ranges out of it."""
    if offsets.size == 0:
        return b""
    lo, hi = int(offsets.min()), int((offsets + lengths).max())
    return ReadBuffers([(lo, store.read(lo, hi - lo))]).gather(offsets, lengths)


# -- subarray decomposition -------------------------------------------------


def _check_subarray(
    shape: Sequence[int], start: Sequence[int], count: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    shp = tuple(map(int, shape))
    st = tuple(map(int, start))
    ct = tuple(map(int, count))
    if not (len(shp) == len(st) == len(ct)):
        raise FormatError(f"shape/start/count rank mismatch: {shp}, {st}, {ct}")
    for d, (s, b, c) in enumerate(zip(shp, st, ct)):
        if b < 0 or c < 0 or b + c > s:
            raise FormatError(f"subarray dim {d}: start={b} count={c} outside extent {s}")
    return shp, st, ct


def contiguous_suffix(shape: Sequence[int], start: Sequence[int], count: Sequence[int]) -> int:
    """First dim index j such that dims j..N-1 form one contiguous span.

    Dims after j must be fully covered; dim j itself may be partial.
    Returns ``len(shape)`` for an empty request.
    """
    shp, st, ct = _check_subarray(shape, start, count)
    n = len(shp)
    if 0 in ct:
        return n
    j = n
    while j > 0 and (j == n or (st[j] == 0 and ct[j] == shp[j])):
        j -= 1
    # dims j+1..n-1 fully covered; dim j partial or first: run spans dims j..n-1
    return j


def _run_geometry(
    shape: Sequence[int], start: Sequence[int], count: Sequence[int], itemsize: int
) -> tuple[tuple[int, ...], list[int], int, int, int]:
    """(count, byte strides, j, first run offset, run bytes), in Python ints.

    ``j`` is :func:`contiguous_suffix`: ``len(shape)`` for an empty
    request or a 0-d shape, which have no outer dims to walk.
    """
    if itemsize <= 0:
        raise FormatError(f"itemsize must be positive, got {itemsize}")
    shp, st, ct = _check_subarray(shape, start, count)
    j = contiguous_suffix(shp, st, ct)
    n = len(shp)
    strides = [0] * n
    acc = itemsize
    for d in range(n - 1, -1, -1):
        strides[d] = acc
        acc *= shp[d]
    first = sum(b * s for b, s in zip(st, strides))
    run_bytes = ct[j] * strides[j] if j < n else itemsize
    return ct, strides, j, first, run_bytes


def subarray_run_offsets(
    shape: Sequence[int], start: Sequence[int], count: Sequence[int], itemsize: int
) -> tuple[np.ndarray, int]:
    """``(offsets, run_len)``: the contiguous runs of a subarray, as arrays.

    ``offsets`` are the runs' ``int64`` byte offsets in the variable's
    row-major byte space, in row-major order; every run is ``run_len``
    bytes.  A 3D block read produces count[0]*count[1] runs of
    count[2]*itemsize bytes (fewer, longer runs if trailing dims are
    fully covered); an empty count produces none.
    """
    ct, strides, j, first, run_len = _run_geometry(shape, start, count, itemsize)
    if 0 in ct:
        return _EMPTY, 0
    if strides and strides[0] * int(shape[0]) >= 2**63:  # the variable's byte size
        raise FormatError(f"variable of shape {tuple(shape)} does not fit int64 byte offsets")
    offsets = np.array(first, dtype=np.int64)
    for d in range(j):  # the outer-dim odometer, last outer dim fastest
        offsets = offsets[..., None] + np.arange(ct[d], dtype=np.int64) * strides[d]
    return offsets.reshape(-1), run_len


def subarray_runs(
    shape: Sequence[int],
    start: Sequence[int],
    count: Sequence[int],
    itemsize: int,
) -> Iterator[tuple[int, int]]:
    """(var_byte_offset, byte_length) tuples of :func:`subarray_run_offsets`.

    The iterating view for tests and probes; the I/O path keeps the arrays.
    """
    offsets, run_len = subarray_run_offsets(shape, start, count, itemsize)
    return zip(offsets.tolist(), [run_len] * offsets.size)


@dataclass(frozen=True)
class RunStats:
    """Aggregate description of a subarray's contiguous runs."""

    num_runs: int
    run_bytes: int
    total_bytes: int
    first_offset: int
    last_end: int

    @property
    def span_bytes(self) -> int:
        """Extent from first byte to last byte touched."""
        return self.last_end - self.first_offset


def subarray_run_stats(
    shape: Sequence[int],
    start: Sequence[int],
    count: Sequence[int],
    itemsize: int,
) -> RunStats:
    """Arithmetic version of :func:`subarray_runs` for paper-scale sizes."""
    ct, strides, j, first, run_bytes = _run_geometry(shape, start, count, itemsize)
    if 0 in ct:
        return RunStats(0, 0, 0, 0, 0)
    num_runs = 1
    for d in range(j):
        num_runs *= ct[d]
    last_start = first + sum((ct[d] - 1) * strides[d] for d in range(j))
    return RunStats(
        num_runs=num_runs,
        run_bytes=run_bytes,
        total_bytes=num_runs * run_bytes,
        first_offset=first,
        last_end=last_start + run_bytes,
    )
