"""Two-phase collective I/O: planning and functional execution.

The planner mirrors ROMIO's collective read (Thakur/Gropp/Lusk, cited
as [24] in the paper):

1. Merge every process's requested byte ranges into *needed intervals*.
2. Split the overall needed span evenly into per-aggregator file
   domains.
3. Each aggregator walks its domain in ``cb_buffer_size`` rounds;
   rounds containing no needed bytes are skipped; rounds containing
   any are read as the whole buffer window, as ROMIO does.

This is exact at paper scale: a 27 GB file in 16 MiB windows is ~1700
rounds, so the plan enumerates real physical accesses even for the
4480^3 runs — no approximation between the functional and analytic
paths.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.formats.layout import RangeArrays, ReadBuffers
from repro.pio.hints import IOHints
from repro.storage.accesslog import AccessLog
from repro.storage.stripedfs import StripedFile
from repro.utils.errors import StorageError

Interval = tuple[int, int]  # (offset, length)
#: Byte ranges as callers spell them: an iterable of (offset, length) pairs,
#: one-shot iterators included, or the handles' (offsets, lengths) int64 arrays.
Ranges = Iterable[Interval] | RangeArrays


def range_arrays(ranges: Ranges) -> RangeArrays:
    """``ranges`` as ``(offsets, lengths)`` int64 arrays; walks an iterable once."""
    if isinstance(ranges, tuple) and len(ranges) == 2 and isinstance(ranges[0], np.ndarray):
        return ranges
    pairs = np.array(list(ranges), dtype=np.int64).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1]


def merge_intervals(intervals: Ranges) -> list[Interval]:
    """Sort and merge touching or overlapping intervals.

    Empty intervals are dropped; a negative offset is a :class:`StorageError`.
    One stable sort and a running maximum of ends over int64 arrays; the
    (short) result is Python-int tuples, which is what plans are made of.
    """
    offsets, lengths = range_arrays(intervals)
    keep = lengths > 0
    offsets, lengths = offsets[keep], lengths[keep]
    order = np.argsort(offsets, kind="stable")
    starts = offsets[order]
    if starts.size == 0:
        return []
    if starts[0] < 0:
        raise StorageError(f"negative interval offset {int(starts[0])}")
    reach = np.maximum.accumulate(starts + lengths[order])
    opens = np.ones(starts.size, dtype=bool)  # interval starts a new merged one
    opens[1:] = starts[1:] > reach[:-1]
    closes = np.ones(starts.size, dtype=bool)
    closes[:-1] = opens[1:]
    starts = starts[opens]
    return list(zip(starts.tolist(), (reach[closes] - starts).tolist()))


@dataclass(frozen=True)
class PlannedAccess:
    """One physical read an aggregator will issue."""

    offset: int
    length: int
    aggregator: int


@dataclass
class TwoPhasePlan:
    """The physical access schedule for one collective read."""

    accesses: list[PlannedAccess]
    requested_bytes: int
    num_aggregators: int
    hints: IOHints
    needed_intervals: list[Interval] = field(default_factory=list)

    @property
    def physical_bytes(self) -> int:
        return sum(a.length for a in self.accesses)

    @property
    def num_accesses(self) -> int:
        return len(self.accesses)

    @property
    def mean_access_bytes(self) -> float:
        return self.physical_bytes / self.num_accesses if self.accesses else 0.0

    @property
    def density(self) -> float:
        """Data density (Fig. 10): useful bytes / physically read bytes."""
        return self.requested_bytes / self.physical_bytes if self.physical_bytes else 0.0

    def per_aggregator_bytes(self) -> np.ndarray:
        out = np.zeros(self.num_aggregators, dtype=np.int64)
        for a in self.accesses:
            out[a.aggregator] += a.length
        return out

    def offsets_lengths(self) -> tuple[np.ndarray, np.ndarray]:
        off = np.array([a.offset for a in self.accesses], dtype=np.int64)
        ln = np.array([a.length for a in self.accesses], dtype=np.int64)
        return off, ln


def plan_two_phase(
    needed: Ranges,
    hints: IOHints,
    file_size: int | None = None,
) -> TwoPhasePlan:
    """Build the collective read plan for merged needed intervals."""
    needed = merge_intervals(needed)
    requested = sum(l for _, l in needed)
    if not needed:
        return TwoPhasePlan([], 0, hints.cb_nodes, hints, [])
    span_start = needed[0][0]
    span_end = needed[-1][0] + needed[-1][1]
    if file_size is not None and span_end > file_size:
        raise StorageError(f"request extends to {span_end}, past file end {file_size}")

    naggs = max(1, hints.cb_nodes)
    span = span_end - span_start
    domain = -(-span // naggs)  # ceil split, ROMIO-style even file domains
    starts = [off for off, _ in needed]
    accesses: list[PlannedAccess] = []
    for agg in range(naggs):
        d0 = span_start + agg * domain
        d1 = min(d0 + domain, span_end)
        if d0 >= d1:
            continue
        accesses.extend(_domain_accesses(needed, starts, d0, d1, agg, hints))
    return TwoPhasePlan(accesses, requested, naggs, hints, list(needed))


def _any_needed(needed: Sequence[Interval], starts: Sequence[int], lo: int, hi: int) -> bool:
    """Whether any needed byte falls inside [lo, hi)."""
    i = bisect_right(starts, lo) - 1
    if i >= 0 and needed[i][0] + needed[i][1] > lo:
        return True
    return i + 1 < len(needed) and needed[i + 1][0] < hi


def _domain_accesses(
    needed: Sequence[Interval],
    starts: Sequence[int],
    d0: int,
    d1: int,
    agg: int,
    hints: IOHints,
) -> list[PlannedAccess]:
    """Round windows across one aggregator's file domain."""
    out: list[PlannedAccess] = []
    buf = hints.cb_buffer_size
    pos = d0
    while pos < d1:
        w1 = min(pos + buf, d1)
        if _any_needed(needed, starts, pos, w1):
            out.append(PlannedAccess(pos, w1 - pos, agg))
        pos = w1
    return out


class PendingCollectiveRead:
    """One collective read split into plan → issue → wait.

    The sequential :meth:`TwoPhaseReader.collective_read` is exactly
    ``begin().issue().wait()`` — the split exists so a pipelined
    time-series campaign can compute the access plan (and price it)
    for timestep t+1, issue the physical reads, and defer the phase-2
    assembly until frame t's compute has drained the previous buffer.
    The physical reads and their log records happen at :meth:`issue`
    time, in plan order, so the byte stream and the access log are
    bitwise identical to the sequential path.

    Each rank's :data:`Ranges` are normalised to int64 arrays once,
    here; the plan comes from their concatenation and :meth:`wait` cuts
    each rank's bytes out of the read buffers with one ``gather``.
    """

    def __init__(self, reader: "TwoPhaseReader", per_rank_ranges: Sequence[Ranges]):
        self._reader = reader
        self._per_rank_ranges = [range_arrays(r) for r in per_rank_ranges]
        # With no ranks this is (), an empty iterable of pairs.
        all_ranges = tuple(np.concatenate(column) for column in zip(*self._per_rank_ranges))
        self.plan = plan_two_phase(all_ranges, reader.hints, reader.file.size())
        self._buffers: list[tuple[int, bytes]] | None = None
        self._result: list[bytes] | None = None

    @property
    def issued(self) -> bool:
        return self._buffers is not None

    def issue(self) -> "PendingCollectiveRead":
        """Phase 1: the aggregators' physical reads (logged); idempotent."""
        if self._buffers is None:
            reader = self._reader
            buffers: list[tuple[int, bytes]] = []
            for a in self.plan.accesses:
                data = reader.file.read(a.offset, a.length)
                reader.log.record(a.offset, a.length, kind="read", actor=a.aggregator)
                buffers.append((a.offset, data))
            self._buffers = buffers
        return self

    def wait(self) -> tuple[list[bytes], TwoPhasePlan]:
        """Phase 2: assemble each rank's bytes; issues first if needed."""
        if self._result is None:
            self.issue()
            assert self._buffers is not None
            buffers = ReadBuffers(self._buffers)
            self._buffers = []  # release the window buffers
            self._result = [buffers.gather(*ranges) for ranges in self._per_rank_ranges]
        return self._result, self.plan


class TwoPhaseReader:
    """Functionally executes collective reads against a striped file."""

    def __init__(self, file: StripedFile, hints: IOHints | None = None, log: AccessLog | None = None):
        self.file = file
        self.hints = hints or IOHints()
        self.log = log if log is not None else AccessLog()

    def begin_collective_read(self, per_rank_ranges: Sequence[Ranges]) -> PendingCollectiveRead:
        """Plan a collective read without touching storage yet."""
        return PendingCollectiveRead(self, per_rank_ranges)

    def collective_read(self, per_rank_ranges: Sequence[Ranges]) -> tuple[list[bytes], TwoPhasePlan]:
        """Phase 1: aggregators read; phase 2: assemble per-rank bytes.

        Returns each rank's requested bytes concatenated in its own
        range order, plus the plan (for timing models and reports).
        """
        return self.begin_collective_read(per_rank_ranges).issue().wait()
