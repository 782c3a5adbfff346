"""Layout algebra: subarray runs, record interleaving, stats."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.formats.layout import (
    ContiguousLayout,
    RecordLayout,
    subarray_run_stats,
    subarray_runs,
)
from repro.utils.errors import FormatError


class TestContiguousLayout:
    def test_maps_with_offset(self):
        lay = ContiguousLayout(begin=100, nbytes=50)
        assert list(lay.file_ranges(10, 20)) == [(110, 20)]

    def test_covering_interval(self):
        assert ContiguousLayout(7, 13).covering_intervals() == [(7, 13)]

    def test_out_of_range_rejected(self):
        with pytest.raises(FormatError):
            list(ContiguousLayout(0, 10).file_ranges(5, 10))


class TestRecordLayout:
    def test_slab_addressing(self):
        lay = RecordLayout(begin=100, slab_bytes=10, stride_bytes=50, num_records=3)
        # Byte 15 of the variable = record 1, byte 5.
        assert list(lay.file_ranges(15, 3)) == [(155, 3)]

    def test_range_spanning_records(self):
        lay = RecordLayout(begin=0, slab_bytes=10, stride_bytes=30, num_records=3)
        assert list(lay.file_ranges(5, 15)) == [(5, 5), (30, 10)]

    def test_covering_intervals_one_per_record(self):
        lay = RecordLayout(begin=4, slab_bytes=8, stride_bytes=20, num_records=4)
        assert lay.covering_intervals() == [(4, 8), (24, 8), (44, 8), (64, 8)]

    def test_nbytes_excludes_padding(self):
        lay = RecordLayout(begin=0, slab_bytes=10, stride_bytes=64, num_records=5)
        assert lay.nbytes == 50

    def test_invalid_stride_rejected(self):
        with pytest.raises(FormatError):
            RecordLayout(0, 100, 50, 2)


def subarray_case():
    """Hypothesis strategy: (shape, start, count) triples in 1-3 dims."""
    def build(dims):
        shape = tuple(d[0] for d in dims)
        start = tuple(d[1] for d in dims)
        count = tuple(d[2] for d in dims)
        return shape, start, count

    dim = st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.integers(min_value=0, max_value=n - 1).flatmap(
            lambda s: st.integers(min_value=0, max_value=n - s).map(lambda c: (n, s, c))
        )
    )
    return st.lists(dim, min_size=1, max_size=3).map(build)


class TestSubarrayRuns:
    def test_full_array_is_one_run(self):
        runs = list(subarray_runs((4, 4, 4), (0, 0, 0), (4, 4, 4), 4))
        assert runs == [(0, 256)]

    def test_inner_block_runs(self):
        runs = list(subarray_runs((4, 4, 4), (1, 1, 1), (2, 2, 2), 1))
        assert len(runs) == 4  # 2 z-planes x 2 y-rows
        assert all(length == 2 for _off, length in runs)
        assert runs[0] == (1 * 16 + 1 * 4 + 1, 2)

    def test_fully_covered_suffix_merges(self):
        # Trailing dims fully covered -> longer runs.
        runs = list(subarray_runs((4, 4, 4), (1, 0, 0), (2, 4, 4), 4))
        assert runs == [(64, 128)]  # offset 16 elements * 4B, one merged run

    def test_empty_count_yields_nothing(self):
        assert list(subarray_runs((4, 4), (0, 0), (0, 4), 1)) == []

    def test_bad_subarray_rejected(self):
        with pytest.raises(FormatError):
            list(subarray_runs((4,), (3,), (2,), 1))
        with pytest.raises(FormatError):
            list(subarray_runs((4,), (0,), (4,), 0))

    @settings(max_examples=100, deadline=None)
    @given(subarray_case(), st.sampled_from([1, 2, 4, 8]))
    def test_runs_cover_exactly_the_subarray(self, case, itemsize):
        """The runs' bytes are exactly the subarray's elements, in order."""
        shape, start, count = case
        n = int(np.prod(shape))
        flat = np.arange(n * itemsize, dtype=np.uint8)
        arr = flat.reshape(shape + (itemsize,))
        sl = tuple(slice(s, s + c) for s, c in zip(start, count))
        expected = arr[sl].reshape(-1)
        got = np.concatenate(
            [flat[o : o + l] for o, l in subarray_runs(shape, start, count, itemsize)]
            or [np.empty(0, np.uint8)]
        )
        assert np.array_equal(got, expected)

    @settings(max_examples=100, deadline=None)
    @given(subarray_case(), st.sampled_from([1, 4]))
    def test_stats_match_enumeration(self, case, itemsize):
        shape, start, count = case
        runs = list(subarray_runs(shape, start, count, itemsize))
        stats = subarray_run_stats(shape, start, count, itemsize)
        assert stats.num_runs == len(runs)
        assert stats.total_bytes == sum(l for _o, l in runs)
        if runs:
            assert stats.run_bytes == runs[0][1]
            assert stats.first_offset == runs[0][0]
            assert stats.last_end == runs[-1][0] + runs[-1][1]


def _maximal_runs(byte_ids: np.ndarray, group_ids: np.ndarray) -> list[tuple[int, int]]:
    """(first, length) of each stretch of consecutive ids inside one group."""
    if byte_ids.size == 0:
        return []
    breaks = np.flatnonzero((np.diff(byte_ids) != 1) | (np.diff(group_ids) != 0)) + 1
    firsts = np.concatenate(([0], breaks))
    ends = np.concatenate((breaks, [byte_ids.size]))
    return [(int(byte_ids[a]), int(b - a)) for a, b in zip(firsts, ends)]


def layout_case():
    """(shape, start, count) in 1-4 dims, biased to empty and full cover."""
    dim = st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.one_of(
            st.just((n, 0, n)),
            st.integers(min_value=0, max_value=n - 1).flatmap(
                lambda s: st.integers(min_value=0, max_value=n - s).map(lambda c: (n, s, c))
            ),
        )
    )
    return st.lists(dim, min_size=1, max_size=4).map(
        lambda dims: tuple(tuple(d[i] for d in dims) for i in range(3))
    )


class TestRunsAndLayoutsAgainstBruteForce:
    """Enumerate every byte, slice, regroup and map by hand."""

    @settings(max_examples=300, deadline=None)
    @given(
        layout_case(),
        st.sampled_from([1, 2, 4]),
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=9),
    )
    def test_runs_then_file_ranges(self, case, itemsize, begin, slab, pad):
        shape, start, count = case
        nbytes = int(np.prod(shape)) * itemsize
        ids = np.arange(nbytes).reshape(shape + (itemsize,))
        ids = ids[tuple(slice(s, s + c) for s, c in zip(start, count))].ravel()
        runs = list(subarray_runs(shape, start, count, itemsize))
        assert runs == _maximal_runs(ids, np.zeros_like(ids))
        assert all(type(v) is int for run in runs for v in run)

        contiguous = ContiguousLayout(begin=begin, nbytes=nbytes)
        got = [r for off, ln in runs for r in contiguous.file_ranges(off, ln)]
        assert got == [(begin + off, ln) for off, ln in runs]

        # Slabs unrelated to the rows: runs cross them wherever they fall,
        # and a piece never continues past a slab even when pad == 0.
        stride = slab + pad
        record = RecordLayout(begin, slab, stride, num_records=-(-nbytes // slab))
        got = [r for off, ln in runs for r in record.file_ranges(off, ln)]
        run_of_byte = np.repeat(np.arange(len(runs)), [ln for _off, ln in runs])
        rec, within = np.divmod(ids, slab)
        file_ids = begin + rec * stride + within
        assert got == _maximal_runs(file_ids, run_of_byte * (nbytes + 1) + rec)
        assert sum(ln for _off, ln in got) == ids.size
