"""Cross-module property-based tests (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.upsample import upsample_trilinear
from repro.formats.h5lite import H5LiteWriter
from repro.formats.netcdf import NetCDFFile, NetCDFWriter
from repro.pio.hints import IOHints
from repro.pio.twophase import TwoPhaseReader, merge_intervals
from repro.storage.store import MemoryStore
from repro.storage.stripedfs import StripedFile

shapes3 = st.tuples(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
)


class TestFormatRoundTrips:
    @settings(max_examples=25, deadline=None)
    @given(
        shapes3,
        st.sampled_from([np.float32, np.float64, np.int16, np.int32]),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_cdf5_roundtrip(self, shape, dtype, seed):
        rng = np.random.default_rng(seed)
        data = (rng.random(shape) * 100).astype(dtype)
        w = NetCDFWriter(version=5)
        w.create_dimension("z", None)
        w.create_dimension("y", shape[1])
        w.create_dimension("x", shape[2])
        w.create_variable("v", dtype, ("z", "y", "x"))
        w.set_variable_data("v", data)
        nc = NetCDFFile.from_bytes(w.write().store.getvalue())
        assert np.array_equal(nc.read_variable("v"), data)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(shapes3, min_size=1, max_size=4),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_h5lite_multi_dataset_roundtrip(self, shapes, seed):
        rng = np.random.default_rng(seed)
        w = H5LiteWriter()
        expect = {}
        for i, shape in enumerate(shapes):
            expect[f"d{i}"] = rng.random(shape).astype(np.float32)
            w.create_dataset(f"d{i}", expect[f"d{i}"])
        f = w.write()
        for name, data in expect.items():
            assert np.array_equal(f.read_dataset(name), data)

    @settings(max_examples=25, deadline=None)
    @given(shapes3, st.sampled_from([2, 3]), st.integers(min_value=0, max_value=10**6))
    def test_upsample_preserves_bounds_and_endpoints(self, shape, factor, seed):
        rng = np.random.default_rng(seed)
        data = rng.random(shape).astype(np.float32)
        out = upsample_trilinear(data, factor)
        assert out.shape == tuple(s * factor for s in shape)
        assert out.min() >= data.min() - 1e-6
        assert out.max() <= data.max() + 1e-6
        assert out[0, 0, 0] == pytest.approx(data[0, 0, 0])
        assert out[-1, -1, -1] == pytest.approx(data[-1, -1, -1])


class TestCollectiveIORoundTrips:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4000),
                st.integers(min_value=0, max_value=500),
            ),
            max_size=10,
        ),
        st.integers(min_value=64, max_value=2048),
    )
    def test_collective_read_returns_exact_bytes(self, ranges, buf):
        base = bytes(range(256)) * 20  # 5120 bytes of known content
        reader = TwoPhaseReader(
            StripedFile(MemoryStore(base)), IOHints(cb_buffer_size=buf, cb_nodes=2)
        )
        per_rank = [[r] for r in ranges]
        out, plan = reader.collective_read(per_rank)
        for got, (off, length) in zip(out, ranges):
            assert got == base[off : off + length]
        # Physical reads cover at least the unique requested bytes.
        unique = sum(l for _o, l in merge_intervals(ranges))
        assert plan.physical_bytes >= unique
