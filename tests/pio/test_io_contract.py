"""The I/O stage's contract: the plan, the log and the bytes.

Pinned against the tuple-at-a-time implementation so that any change
to how byte ranges are enumerated, merged or assembled must reproduce
the same physical accesses, the same access-log sequence, the same
report and the same bytes per rank — for every format, for blocks
with and without ghost layers, and for the single-rank read whose one
run crosses every record slab of a netCDF record variable.

The fields are exact small integers stored as float32 (no libm in the
data), so the digests below are platform-independent.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.data.vh1 import (
    VH1_VARIABLES,
    extract_variable_raw,
    write_vh1_h5lite,
    write_vh1_netcdf,
)
from repro.pio.hints import IOHints
from repro.pio.reader import (
    H5LiteHandle,
    NetCDFHandle,
    RawHandle,
    collective_read_blocks,
    collective_read_blocks_async,
    collective_read_blocks_multi,
)
from repro.pio.twophase import TwoPhaseReader
from repro.render.decomposition import BlockDecomposition
from repro.storage.accesslog import AccessLog
from repro.storage.store import MemoryStore
from repro.storage.stripedfs import StripedFile
from repro.utils.errors import StorageError

GRID = (12, 12, 12)
HINTS = IOHints(cb_buffer_size=4096, cb_nodes=4)
KINDS = ("nc_record", "nc_fixed", "raw", "h5lite")


class ExactModel:
    """VH-1 shaped stand-in whose fields are exact integers in float32."""

    grid_shape = GRID
    time = 0.5
    seed = 0

    def field(self, name: str) -> np.ndarray:
        base = 100_000 * (VH1_VARIABLES.index(name) + 1)
        n = int(np.prod(GRID))
        return (np.arange(n, dtype=np.float32) + base).reshape(GRID)


MODEL = ExactModel()


def handles_for(kind: str, names=("vx",)):
    if kind == "nc_record":
        nc = write_vh1_netcdf(MODEL, version=2)
        return [NetCDFHandle(nc, n) for n in names]
    if kind == "nc_fixed":
        nc = write_vh1_netcdf(MODEL, version=5, record_axis_unlimited=False)
        return [NetCDFHandle(nc, n) for n in names]
    if kind == "h5lite":
        h5 = write_vh1_h5lite(MODEL)
        return [H5LiteHandle(h5, n) for n in names]
    assert kind == "raw"
    return [RawHandle(extract_variable_raw(MODEL, names[0]))]


def blocks_for(ranks: int, ghost: int):
    dec = BlockDecomposition(GRID, ranks)
    if not ghost:
        return [(b.start, b.count) for b in dec.blocks()]
    return [b.ghost_read(GRID, ghost=ghost)[:2] for b in dec.blocks()]


def array_sha(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype="<f4").tobytes()).hexdigest()


def contract(rank_hashes, report, log) -> dict:
    plan = report.plan
    return {
        "accesses": [[a.offset, a.length, a.aggregator] for a in plan.accesses],
        "needed": [list(iv) for iv in plan.needed_intervals],
        "plan": [plan.requested_bytes, plan.num_aggregators],
        "report": [
            report.requested_bytes,
            report.meta_accesses_per_proc,
            report.meta_bytes_per_proc,
            report.nprocs,
            report.file_bytes,
        ],
        "log": [[a.offset, a.length, a.kind, a.actor] for a in log.accesses],
        "arrays": rank_hashes,
    }


def digest(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def read_single(kind, ranks, ghost, split=False) -> dict:
    (handle,) = handles_for(kind)
    blocks = blocks_for(ranks, ghost)
    log = AccessLog()
    if split:
        pending = collective_read_blocks_async(handle, blocks, HINTS, log=log)
        assert [a.kind for a in log.accesses] == ["meta"] * len(log.accesses)
        arrays, report = pending.issue().wait()
    else:
        arrays, report = collective_read_blocks(handle, blocks, HINTS, log=log)
    truth = MODEL.field("vx")
    for (start, count), arr in zip(blocks, arrays):
        sl = tuple(slice(s, s + c) for s, c in zip(start, count))
        assert arr.dtype == np.float32 and np.array_equal(arr, truth[sl])
    return contract([array_sha(a) for a in arrays], report, log)


def read_multi(kind, ranks, ghost) -> dict:
    names = ("vx",) if kind == "raw" else ("density", "vx")
    handles = handles_for(kind, names)
    blocks = blocks_for(ranks, ghost)
    log = AccessLog()
    per_rank, report = collective_read_blocks_multi(handles, blocks, HINTS, log=log)
    for (start, count), rank_vars in zip(blocks, per_rank):
        sl = tuple(slice(s, s + c) for s, c in zip(start, count))
        assert list(rank_vars) == [h.name for h in handles]
        for h, n in zip(handles, names):
            assert np.array_equal(rank_vars[h.name], MODEL.field(n)[sl])
    hashes = [[array_sha(rv[h.name]) for h in handles] for rv in per_rank]
    return contract(hashes, report, log)


CASES = [(k, r, g) for k in KINDS for r in (1, 8, 27) for g in (0, 1)]

#: (kind, ranks, ghost) -> digest of ``contract(...)``, recorded from the
#: implementation that walked ranges one tuple at a time.
SINGLE = {
    ("nc_record", 1, 0): "02cd3f4070c837bb",
    ("nc_record", 1, 1): "02cd3f4070c837bb",
    ("nc_record", 8, 0): "c713f775236cce61",
    ("nc_record", 8, 1): "4827b2093bb58bab",
    ("nc_record", 27, 0): "da615a00a81d59d9",
    ("nc_record", 27, 1): "085607bc183c1929",
    ("nc_fixed", 1, 0): "d30d412fb1e432ab",
    ("nc_fixed", 1, 1): "d30d412fb1e432ab",
    ("nc_fixed", 8, 0): "8d114ca824ee6358",
    ("nc_fixed", 8, 1): "c7ee4479822490ef",
    ("nc_fixed", 27, 0): "75fc27d296dc0805",
    ("nc_fixed", 27, 1): "eeaf6bdc162a8f45",
    ("raw", 1, 0): "458764c62e3e92bb",
    ("raw", 1, 1): "458764c62e3e92bb",
    ("raw", 8, 0): "3fd9a230d8cdd838",
    ("raw", 8, 1): "5347a414c9dd99b7",
    ("raw", 27, 0): "2b43f5cd7de1cbde",
    ("raw", 27, 1): "c280c54f6c6c8925",
    ("h5lite", 1, 0): "0d4ec5fdea44713d",
    ("h5lite", 1, 1): "0d4ec5fdea44713d",
    ("h5lite", 8, 0): "529832b7b482d80a",
    ("h5lite", 8, 1): "301de32dd31f3c4a",
    ("h5lite", 27, 0): "ef84b04cab8d3bda",
    ("h5lite", 27, 1): "a6158d1699f4db84",
}
MULTI = {
    ("nc_record", 1, 0): "d44af6ba97fb0110",
    ("nc_record", 1, 1): "d44af6ba97fb0110",
    ("nc_record", 8, 0): "4604dad98269d60e",
    ("nc_record", 8, 1): "b75c56ae9c80d1fd",
    ("nc_record", 27, 0): "7d5589d575c5ca1f",
    ("nc_record", 27, 1): "24027cbc564ad7b9",
    ("nc_fixed", 1, 0): "61f7931724336164",
    ("nc_fixed", 1, 1): "61f7931724336164",
    ("nc_fixed", 8, 0): "f759bea44ece9c4f",
    ("nc_fixed", 8, 1): "10fd8b733fda3935",
    ("nc_fixed", 27, 0): "49d2b29a69ecfacd",
    ("nc_fixed", 27, 1): "e67f83ae9dbc03c6",
    ("raw", 1, 0): "1d3b0b494744715c",
    ("raw", 1, 1): "1d3b0b494744715c",
    ("raw", 8, 0): "4250e6fdb4dcf391",
    ("raw", 8, 1): "f6c3bb2d787edc66",
    ("raw", 27, 0): "236fb104e2d5b280",
    ("raw", 27, 1): "6aa1fc2c2193deb1",
    ("h5lite", 1, 0): "76b3d136ea5589d5",
    ("h5lite", 1, 1): "76b3d136ea5589d5",
    ("h5lite", 8, 0): "8333286f79e55df8",
    ("h5lite", 8, 1): "dcba98fbe297d839",
    ("h5lite", 27, 0): "276e65bda0b2a1ec",
    ("h5lite", 27, 1): "315e1aabc72a2c18",
}


@pytest.mark.parametrize("kind,ranks,ghost", CASES)
class TestPinnedContract:
    def test_collective_read_blocks(self, kind, ranks, ghost):
        assert digest(read_single(kind, ranks, ghost)) == SINGLE[kind, ranks, ghost]

    def test_async_split_is_the_same_read(self, kind, ranks, ghost):
        assert digest(read_single(kind, ranks, ghost, split=True)) == SINGLE[kind, ranks, ghost]

    def test_collective_read_blocks_multi(self, kind, ranks, ghost):
        assert digest(read_multi(kind, ranks, ghost)) == MULTI[kind, ranks, ghost]


def test_single_rank_record_read_crosses_every_slab():
    """The ranks=1 record case is one run split at each of the 12 slabs."""
    (handle,) = handles_for("nc_record")
    ranges = list(handle.subarray_ranges((0, 0, 0), GRID))
    slab = handle.record_bytes
    assert [ln for _off, ln in ranges] == [slab] * GRID[0]
    stride = ranges[1][0] - ranges[0][0]
    assert stride == len(VH1_VARIABLES) * slab
    assert [off for off, _ln in ranges] == [ranges[0][0] + r * stride for r in range(GRID[0])]


class TestAssemblyAcrossBuffers:
    DATA = bytes((7 * i + 3) % 251 for i in range(1024))

    def reader(self, **hints) -> TwoPhaseReader:
        hints = IOHints(cb_buffer_size=64, **hints)
        return TwoPhaseReader(StripedFile(MemoryStore(self.DATA)), hints, AccessLog())

    def test_range_straddles_window_buffers(self):
        reader = self.reader(cb_nodes=2)
        ranges = [[(50, 200), (300, 10)], [(120, 20), (60, 70)], [(400, 0)]]
        out, plan = reader.collective_read(ranges)
        assert plan.num_accesses > 3  # (50, 200) alone spans four windows
        assert out == [
            self.DATA[50:250] + self.DATA[300:310],
            self.DATA[120:140] + self.DATA[60:130],
            b"",
        ]

    def test_range_straddling_a_hole_is_reported(self):
        pending = self.reader(cb_nodes=1).begin_collective_read([[(0, 16)], [(10, 200)]])
        assert [(a.offset, a.length) for a in pending.plan.accesses] == [
            (0, 64), (64, 64), (128, 64), (192, 18)
        ]
        del pending.plan.accesses[2]
        with pytest.raises(StorageError) as err:
            pending.wait()
        assert str(err.value) == "requested byte 128 falls in a hole between physical reads"

    def test_range_starting_in_a_hole_is_reported(self):
        pending = self.reader(cb_nodes=1).begin_collective_read([[(0, 16), (70, 4)]])
        del pending.plan.accesses[1:]
        pending.plan.accesses.append(type(pending.plan.accesses[0])(128, 8, 0))
        with pytest.raises(StorageError) as err:
            pending.wait()
        assert str(err.value) == "requested byte 70 falls in a hole between physical reads"

    def test_range_before_every_read_is_reported(self):
        pending = self.reader(cb_nodes=1).begin_collective_read([[(100, 8)], [(10, 200)]])
        del pending.plan.accesses[0]
        with pytest.raises(StorageError) as err:
            pending.wait()
        assert str(err.value) == "requested byte 10 was not covered by any physical read"
