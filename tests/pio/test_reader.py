"""Dataset handles and collective block reads across all formats."""

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
    collective_read_blocks_multi,
    plan_read_blocks,
)
from repro.render.decomposition import BlockDecomposition
from repro.storage.accesslog import AccessLog
from repro.utils.errors import FormatError


@pytest.fixture(scope="module")
def model():
    return SupernovaModel((12, 12, 12), seed=5)


def handle_for(fmt: str, model):
    if fmt == "raw":
        return RawHandle(extract_variable_raw(model, "vx")), model.field("vx")
    if fmt == "netcdf":
        return NetCDFHandle(write_vh1_netcdf(model), "vx"), model.field("vx")
    if fmt == "h5lite":
        return H5LiteHandle(write_vh1_h5lite(model), "vx"), model.field("vx")
    raise ValueError(fmt)


@pytest.mark.parametrize("fmt", ("raw", "netcdf", "h5lite"))
class TestCollectiveBlockRead:
    def test_every_rank_gets_its_block(self, fmt, model):
        handle, truth = handle_for(fmt, model)
        dec = BlockDecomposition((12, 12, 12), 8)
        blocks = [(b.start, b.count) for b in dec.blocks()]
        arrays, report = collective_read_blocks(
            handle, blocks, IOHints(cb_buffer_size=4096, cb_nodes=2)
        )
        for (start, count), arr in zip(blocks, arrays):
            sl = tuple(slice(s, s + c) for s, c in zip(start, count))
            assert np.array_equal(arr, truth[sl])
        assert report.requested_bytes == truth.nbytes
        assert report.nprocs == 8

    def test_ghost_blocks_overlap_fine(self, fmt, model):
        handle, truth = handle_for(fmt, model)
        dec = BlockDecomposition((12, 12, 12), 8)
        blocks = []
        for b in dec.blocks():
            rs, rc, _gl = b.ghost_read((12, 12, 12), ghost=1)
            blocks.append((rs, rc))
        arrays, _report = collective_read_blocks(handle, blocks)
        for (start, count), arr in zip(blocks, arrays):
            sl = tuple(slice(s, s + c) for s, c in zip(start, count))
            assert np.array_equal(arr, truth[sl])


class TestFormatSpecifics:
    def test_netcdf_density_below_one(self, model):
        """Reading one of five interleaved variables touches extra bytes."""
        handle = NetCDFHandle(write_vh1_netcdf(model), "vx")
        report = plan_read_blocks(handle, nprocs=4, hints=IOHints(cb_buffer_size=2048, cb_nodes=2))
        assert report.density < 0.9

    def test_raw_density_is_one(self, model):
        handle = RawHandle(extract_variable_raw(model, "vx"))
        report = plan_read_blocks(handle, nprocs=4)
        assert report.density == pytest.approx(1.0)

    def test_h5lite_metadata_logged(self, model):
        handle = H5LiteHandle(write_vh1_h5lite(model), "vx")
        log = AccessLog()
        dec = BlockDecomposition((12, 12, 12), 4)
        blocks = [(b.start, b.count) for b in dec.blocks()]
        _arrays, report = collective_read_blocks(handle, blocks, log=log)
        assert report.meta_accesses_per_proc == 13
        assert len(log.meta_accesses()) == 13 * 4

    def test_netcdf_record_bytes(self, model):
        handle = NetCDFHandle(write_vh1_netcdf(model), "vx")
        assert handle.record_bytes == 12 * 12 * 4

    def test_record_bytes_requires_record_var(self, model):
        nc = write_vh1_netcdf(model, version=5, record_axis_unlimited=False)
        handle = NetCDFHandle(nc, "vx")
        with pytest.raises(FormatError, match="not a record"):
            _ = handle.record_bytes

    def test_tuned_buffer_improves_netcdf_density(self, model):
        handle = NetCDFHandle(write_vh1_netcdf(model), "vx")
        rec = handle.record_bytes
        untuned = plan_read_blocks(handle, 4, IOHints(cb_buffer_size=8 * rec, cb_nodes=1))
        tuned = plan_read_blocks(handle, 4, IOHints(cb_buffer_size=rec, cb_nodes=1))
        assert tuned.density > untuned.density


@pytest.mark.parametrize("fmt", ("netcdf", "h5lite"))
def test_one_variable_multi_read_is_the_single_read(fmt, model):
    """Both read front doors run one body: a one-variable multi read
    returns the single read's arrays, plan, report and access log."""
    handle, _truth = handle_for(fmt, model)
    grid = (12, 12, 12)
    blocks = [b.ghost_read(grid, 1)[:2] for b in BlockDecomposition(grid, 8).blocks()]
    hints = IOHints(cb_buffer_size=4096, cb_nodes=4)
    single_log, multi_log = AccessLog(), AccessLog()
    arrays, report = collective_read_blocks(handle, blocks, hints, log=single_log)
    per_rank, multi_report = collective_read_blocks_multi([handle], blocks, hints, log=multi_log)
    assert [list(rank_vars) for rank_vars in per_rank] == [[handle.name]] * len(blocks)
    for arr, rank_vars in zip(arrays, per_rank):
        got = rank_vars[handle.name]
        assert got.dtype == arr.dtype and np.array_equal(got, arr)
    assert multi_report.plan.accesses == report.plan.accesses
    assert multi_report == report
    assert multi_log.accesses == single_log.accesses
    assert multi_log.meta_accesses() and len(multi_log.accesses) > len(multi_log.meta_accesses())
