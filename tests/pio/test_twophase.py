"""Two-phase planner and executor."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.pio.hints import IOHints
from repro.pio.twophase import (
    TwoPhaseReader,
    merge_intervals,
    plan_two_phase,
)
from repro.storage.accesslog import AccessLog
from repro.storage.store import MemoryStore
from repro.storage.stripedfs import StripedFile
from repro.utils.errors import StorageError

intervals_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=100_000),
        st.integers(min_value=0, max_value=5_000),
    ),
    max_size=30,
)


class TestMergeIntervals:
    def test_merges_overlaps(self):
        assert merge_intervals([(0, 10), (5, 10)]) == [(0, 15)]

    def test_merges_touching(self):
        assert merge_intervals([(0, 10), (10, 5)]) == [(0, 15)]

    def test_keeps_gaps(self):
        assert merge_intervals([(0, 10), (20, 5)]) == [(0, 10), (20, 5)]

    def test_drops_empty(self):
        assert merge_intervals([(5, 0), (1, 2)]) == [(1, 2)]

    def test_negative_offset_rejected(self):
        with pytest.raises(StorageError):
            merge_intervals([(-1, 5)])

    @settings(max_examples=50, deadline=None)
    @given(intervals_strategy)
    def test_merged_intervals_are_sorted_disjoint_and_cover(self, intervals):
        merged = merge_intervals(intervals)
        for i in range(1, len(merged)):
            prev_end = merged[i - 1][0] + merged[i - 1][1]
            assert merged[i][0] > prev_end  # strictly separated
        # Coverage: every input byte is inside some merged interval.
        for off, length in intervals:
            if length == 0:
                continue
            assert any(m0 <= off and off + length <= m0 + ml for m0, ml in merged)


class TestPlanTwoPhase:
    def test_contiguous_request_reads_exactly_windows(self):
        plan = plan_two_phase([(0, 1000)], IOHints(cb_buffer_size=256, cb_nodes=1))
        assert plan.physical_bytes == 1000
        assert plan.num_accesses == 4
        assert plan.density == 1.0

    def test_empty_request(self):
        plan = plan_two_phase([], IOHints())
        assert plan.num_accesses == 0
        assert plan.density == 0.0

    def test_sparse_request_skips_empty_windows(self):
        # Needed bytes every 1000, window 100 -> only windows with data read.
        needed = [(i * 1000, 10) for i in range(10)]
        plan = plan_two_phase(needed, IOHints(cb_buffer_size=100, cb_nodes=1))
        assert plan.requested_bytes == 100
        assert plan.num_accesses == 10
        assert plan.physical_bytes <= 10 * 100

    def test_windows_larger_than_gaps_read_everything(self):
        """The untuned-netCDF effect: big windows straddle every hole."""
        needed = [(i * 1000, 10) for i in range(10)]
        plan = plan_two_phase(needed, IOHints(cb_buffer_size=2000, cb_nodes=1))
        span = needed[-1][0] + 10 - needed[0][0]
        assert plan.physical_bytes >= span * 0.9

    def test_aggregators_partition_domains(self):
        plan = plan_two_phase([(0, 10_000)], IOHints(cb_buffer_size=1000, cb_nodes=4))
        per_agg = plan.per_aggregator_bytes()
        assert per_agg.sum() == plan.physical_bytes
        assert np.all(per_agg == 2500)

    def test_accesses_never_overlap_domains(self):
        plan = plan_two_phase([(0, 9999)], IOHints(cb_buffer_size=512, cb_nodes=3))
        spans = sorted((a.offset, a.offset + a.length) for a in plan.accesses)
        for i in range(1, len(spans)):
            assert spans[i][0] >= spans[i - 1][1]

    def test_request_past_file_end_rejected(self):
        with pytest.raises(StorageError, match="past file end"):
            plan_two_phase([(0, 100)], IOHints(), file_size=50)

    @settings(max_examples=50, deadline=None)
    @given(
        intervals_strategy,
        st.integers(min_value=64, max_value=4096),
        st.integers(min_value=1, max_value=8),
    )
    def test_plan_covers_every_requested_byte(self, intervals, buf, naggs):
        plan = plan_two_phase(intervals, IOHints(cb_buffer_size=buf, cb_nodes=naggs))
        merged = merge_intervals(intervals)
        # Every needed interval must be fully covered by the accesses.
        covered = merge_intervals([(a.offset, a.length) for a in plan.accesses])
        for off, length in merged:
            pos = off
            for c0, cl in covered:
                if c0 <= pos < c0 + cl:
                    pos = c0 + cl
                if pos >= off + length:
                    break
            assert pos >= off + length, (off, length, covered)


class TestTwoPhaseReader:
    def _file(self, nbytes=8192):
        data = bytes(range(256)) * (nbytes // 256)
        return StripedFile(MemoryStore(data))

    def test_collective_read_returns_each_ranks_bytes(self):
        f = self._file()
        reader = TwoPhaseReader(f, IOHints(cb_buffer_size=512, cb_nodes=2))
        per_rank = [[(0, 10)], [(100, 20), (4000, 5)], [(8000, 192)]]
        out, plan = reader.collective_read(per_rank)
        raw = f.store.getvalue()
        assert out[0] == raw[0:10]
        assert out[1] == raw[100:120] + raw[4000:4005]
        assert out[2] == raw[8000:8192]
        assert plan.requested_bytes == 10 + 25 + 192

    def test_overlapping_rank_requests_ok(self):
        """Ghost zones: neighbouring ranks request overlapping bytes."""
        f = self._file()
        reader = TwoPhaseReader(f)
        out, _plan = reader.collective_read([[(0, 100)], [(50, 100)]])
        raw = f.store.getvalue()
        assert out[0] == raw[:100]
        assert out[1] == raw[50:150]

    def test_accesses_logged(self):
        log = AccessLog()
        reader = TwoPhaseReader(self._file(), IOHints(cb_buffer_size=1024, cb_nodes=1), log)
        reader.collective_read([[(0, 2048)]])
        assert log.count == 2
        assert log.total_bytes == 2048


class TestRangeSpellings:
    """Pairs, one-shot iterators and int64 arrays all mean the same ranges."""

    DATA = bytes(range(256)) * 8
    PAIRS = [(700, 30), (10, 20), (10, 0), (100, 50), (120, 40)]

    def _reader(self):
        hints = IOHints(cb_buffer_size=128, cb_nodes=2)
        return TwoPhaseReader(StripedFile(MemoryStore(self.DATA)), hints)

    def _spellings(self):
        pairs = np.array(self.PAIRS, dtype=np.int64)
        yield list(self.PAIRS)
        yield iter(self.PAIRS)
        yield (off_len for off_len in self.PAIRS)
        yield (pairs[:, 0].copy(), pairs[:, 1].copy())

    def test_merge_intervals(self):
        for ranges in self._spellings():
            merged = merge_intervals(ranges)
            assert merged == [(10, 20), (100, 60), (700, 30)]
            assert all(type(v) is int for iv in merged for v in iv)

    def test_plans(self):
        hints = self._reader().hints
        want = plan_two_phase(self.PAIRS, hints)
        assert want.requested_bytes == 110
        for ranges in self._spellings():
            assert plan_two_phase(ranges, hints) == want

    def test_reads(self):
        want = b"".join(self.DATA[o : o + n] for o, n in self.PAIRS)
        for ranges in self._spellings():
            out, plan = self._reader().collective_read([ranges])
            assert out == [want] and plan.requested_bytes == 110

    def test_one_shot_subarray_ranges_are_planned(self):
        """``subarray_ranges`` returns an iterator; walking it twice used to
        plan nothing and fail later with 'not covered by any physical read'."""
        from repro.data import SupernovaModel, write_vh1_netcdf
        from repro.pio import NetCDFHandle

        model = SupernovaModel((8, 8, 8), seed=3)
        ncfile = write_vh1_netcdf(model)
        handle = NetCDFHandle(ncfile, "vx")
        ranges = handle.subarray_ranges((2, 1, 0), (3, 4, 8))
        assert iter(ranges) is ranges  # one-shot, as documented
        reader = TwoPhaseReader(StripedFile(ncfile.store), IOHints(cb_buffer_size=512))
        (raw,), plan = reader.collective_read([ranges])
        assert plan.requested_bytes == 3 * 4 * 8 * 4
        assert np.array_equal(handle.decode(raw, (3, 4, 8)), model.field("vx")[2:5, 1:5, :])

    def test_empty_requests_need_no_reads(self):
        out, plan = self._reader().collective_read([[(5, 0)], [], iter(())])
        assert out == [b"", b"", b""] and plan.num_accesses == 0
        assert self._reader().collective_read([]) == ([], plan)
