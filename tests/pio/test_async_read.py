"""The plan/issue/wait split must be byte-identical to the sync path.

``collective_read_blocks`` is now literally ``async().issue().wait()``,
so the sync entry point can't drift — these tests pin the *split* form:
the plan is available before issue, issue is idempotent, wait assembles
lazily, and the arrays / IOReport / access-log records all match the
sequential call exactly.
"""

import numpy as np
import pytest

from repro.data.synthetic import SupernovaModel
from repro.data.vh1 import extract_variable_raw, write_vh1_h5lite, write_vh1_netcdf
from repro.pio.hints import IOHints
from repro.pio.reader import (
    H5LiteHandle,
    NetCDFHandle,
    RawHandle,
    collective_read_blocks,
    collective_read_blocks_async,
)
from repro.storage.stripedfs import StripedFile
from repro.pio.twophase import TwoPhaseReader
from repro.render.decomposition import BlockDecomposition
from repro.storage.accesslog import AccessLog

GRID = (12, 12, 12)
HINTS = IOHints(cb_buffer_size=4096, cb_nodes=2)


@pytest.fixture(scope="module")
def model():
    return SupernovaModel(GRID, seed=5)


def handle_for(fmt: str, model):
    if fmt == "raw":
        return RawHandle(extract_variable_raw(model, "vx"))
    if fmt == "netcdf":
        return NetCDFHandle(write_vh1_netcdf(model), "vx")
    return H5LiteHandle(write_vh1_h5lite(model), "vx")


def blocks_for(nprocs=4):
    return [(b.start, b.count) for b in BlockDecomposition(GRID, nprocs).blocks()]


@pytest.mark.parametrize("fmt", ("raw", "netcdf", "h5lite"))
class TestAsyncBlockRead:
    def test_matches_sync_path(self, fmt, model):
        handle = handle_for(fmt, model)
        blocks = blocks_for()
        sync_log, async_log = AccessLog(), AccessLog()
        arrays, report = collective_read_blocks(handle, blocks, HINTS, log=sync_log)
        pending = collective_read_blocks_async(handle, blocks, HINTS, log=async_log)
        a_arrays, a_report = pending.issue().wait()
        for x, y in zip(arrays, a_arrays):
            assert np.array_equal(x, y)
        assert a_report.requested_bytes == report.requested_bytes
        assert a_report.nprocs == report.nprocs
        assert a_report.density == pytest.approx(report.density)
        assert len(a_report.plan.accesses) == len(report.plan.accesses)
        assert async_log.accesses == sync_log.accesses

    def test_plan_available_before_issue(self, fmt, model):
        handle = handle_for(fmt, model)
        pending = collective_read_blocks_async(handle, blocks_for(), HINTS)
        assert not pending.issued
        assert pending.report.requested_bytes > 0
        assert pending.report.plan.accesses  # priceable before any read

    def test_issue_idempotent_wait_cached(self, fmt, model):
        handle = handle_for(fmt, model)
        log = AccessLog()
        pending = collective_read_blocks_async(handle, blocks_for(), HINTS, log=log)
        pending.issue().issue()
        n_records = len(log.accesses)
        first, _ = pending.wait()
        again, _ = pending.wait()
        assert len(log.accesses) == n_records  # no re-reads
        for x, y in zip(first, again):
            assert x is y  # cached, not reassembled

    def test_wait_without_issue_issues(self, fmt, model):
        handle = handle_for(fmt, model)
        arrays, _ = collective_read_blocks(handle, blocks_for(), HINTS)
        pending = collective_read_blocks_async(handle, blocks_for(), HINTS)
        a_arrays, _ = pending.wait()
        for x, y in zip(arrays, a_arrays):
            assert np.array_equal(x, y)


class TestPendingCollectiveRead:
    def _reader(self, model, log):
        handle = RawHandle(extract_variable_raw(model, "vx"))
        return TwoPhaseReader(StripedFile(handle.store), HINTS, log), handle

    def test_split_matches_collective_read(self, model):
        log_a, log_b = AccessLog(), AccessLog()
        reader_a, handle = self._reader(model, log_a)
        reader_b, _ = self._reader(model, log_b)
        ranges = [list(handle.subarray_ranges(s, c)) for s, c in blocks_for()]
        got_a, plan_a = reader_a.collective_read(ranges)
        got_b, plan_b = reader_b.begin_collective_read(ranges).issue().wait()
        assert got_a == got_b
        assert len(plan_a.accesses) == len(plan_b.accesses)
        assert log_a.accesses == log_b.accesses

    def test_buffers_released_after_wait(self, model):
        reader, handle = self._reader(model, AccessLog())
        ranges = [list(handle.subarray_ranges(s, c)) for s, c in blocks_for()]
        pending = reader.begin_collective_read(ranges)
        pending.issue()
        pending.wait()
        assert pending._buffers == []  # window buffers dropped
