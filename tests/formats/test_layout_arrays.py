"""The int64 array form of runs and layouts (the tuple views are in test_layout)."""

import numpy as np
import pytest

from repro.formats.layout import (
    ContiguousLayout,
    RecordLayout,
    subarray_run_offsets,
    subarray_run_stats,
)
from repro.utils.errors import FormatError


class TestArrayForm:
    def test_run_offsets_are_int64_in_row_major_order(self):
        offsets, run_len = subarray_run_offsets((4, 4, 4), (1, 1, 1), (2, 2, 2), 1)
        assert offsets.dtype == np.int64 and run_len == 2
        assert offsets.tolist() == [21, 25, 37, 41]
        offsets, run_len = subarray_run_offsets((4, 4), (0, 0), (0, 4), 1)
        assert offsets.dtype == np.int64 and offsets.size == 0

    def test_paper_scale_offsets_do_not_wrap(self):
        n = 4480
        offsets, run_len = subarray_run_offsets((n, n, n), (n - 1, n - 2, 0), (1, 2, n), 4)
        assert run_len == 2 * n * 4
        assert int(offsets[0]) + run_len == n**3 * 4  # 335 GB, far beyond int32

    def test_byte_size_beyond_int64_is_rejected_not_wrapped(self):
        shape = (2**40, 2**30)
        with pytest.raises(FormatError, match="does not fit int64"):
            subarray_run_offsets(shape, (0, 0), (2, 1), 8)
        assert subarray_run_stats(shape, (0, 0), (2, 1), 8).num_runs == 2

    def test_out_of_range_runs_keep_the_error_text(self):
        offsets = np.array([0, 40, 90], dtype=np.int64)
        with pytest.raises(FormatError, match=r"range \[90, 110\) outside variable of 100 bytes"):
            ContiguousLayout(begin=8, nbytes=100).map_runs(offsets, 20)
        record = RecordLayout(begin=8, slab_bytes=25, stride_bytes=60, num_records=4)
        with pytest.raises(
            FormatError, match=r"range \[90, 110\) outside record variable of 100 bytes"
        ):
            record.map_runs(offsets, 20)
        with pytest.raises(FormatError, match=r"range \[-5, 0\) outside"):
            record.map_runs(offsets - 5, 5)

    def test_record_runs_split_only_where_they_cross_a_slab(self):
        record = RecordLayout(begin=8, slab_bytes=25, stride_bytes=60, num_records=4)
        file_offsets, lengths = record.map_runs(np.array([0, 30, 60], dtype=np.int64), 10)
        assert file_offsets.tolist() == [8, 73, 138] and lengths.tolist() == [10, 10, 10]
        file_offsets, lengths = record.map_runs(np.array([5, 40], dtype=np.int64), 40)
        assert list(zip(file_offsets.tolist(), lengths.tolist())) == [
            (13, 20), (68, 20), (83, 10), (128, 25), (188, 5)
        ]
