"""Upsampling (the paper's Sec. IV-B preprocessing)."""

import numpy as np
import pytest

from repro.data.synthetic import SupernovaModel
from repro.data.upsample import (
    input_region_for_output_block,
    upsample_parallel_program,
    upsample_trilinear,
)
from repro.render.decomposition import BlockDecomposition
from repro.utils.errors import ConfigError
from repro.vmpi import MPIWorld


class TestSerialUpsample:
    def test_output_shape(self):
        out = upsample_trilinear(np.zeros((4, 5, 6), np.float32), 2)
        assert out.shape == (8, 10, 12)

    def test_factor_one_is_copy(self, rng):
        data = rng.random((4, 4, 4)).astype(np.float32)
        out = upsample_trilinear(data, 1)
        assert np.array_equal(out, data)
        assert out is not data

    def test_endpoints_preserved(self, rng):
        data = rng.random((4, 4, 4)).astype(np.float32)
        out = upsample_trilinear(data, 2)
        assert out[0, 0, 0] == pytest.approx(data[0, 0, 0])
        assert out[-1, -1, -1] == pytest.approx(data[-1, -1, -1])

    def test_linear_field_upsamples_exactly(self):
        """Trilinear interpolation reproduces (tri)linear fields."""
        z, y, x = np.meshgrid(np.arange(4.0), np.arange(4.0), np.arange(4.0), indexing="ij")
        data = (2 * x + 3 * y - z).astype(np.float32)
        out = upsample_trilinear(data, 2)
        zz, yy, xx = np.meshgrid(
            np.linspace(0, 3, 8), np.linspace(0, 3, 8), np.linspace(0, 3, 8), indexing="ij"
        )
        expected = (2 * xx + 3 * yy - zz).astype(np.float32)
        assert np.allclose(out, expected, atol=1e-5)

    def test_value_range_preserved(self, rng):
        data = rng.random((6, 6, 6)).astype(np.float32)
        out = upsample_trilinear(data, 4)
        assert out.min() >= data.min() - 1e-6
        assert out.max() <= data.max() + 1e-6

    def test_structure_preserved(self):
        """The paper: "Upsampling preserves the structure of the data".

        The output grid is a slight rescale of the input (endpoints
        map to endpoints), so strided downsampling is not an exact
        inverse — but the fields must stay strongly correlated.
        """
        model = SupernovaModel((12, 12, 12))
        data = model.field("vx")
        up = upsample_trilinear(data, 2)
        corr = np.corrcoef(up[::2, ::2, ::2].ravel(), data.ravel())[0, 1]
        assert corr > 0.9

    def test_invalid_args(self):
        with pytest.raises(ConfigError):
            upsample_trilinear(np.zeros((2, 2), np.float32), 2)
        with pytest.raises(ConfigError):
            upsample_trilinear(np.zeros((2, 2, 2), np.float32), 0)


class TestParallelUpsample:
    def test_matches_serial(self, rng):
        in_shape = (8, 8, 8)
        factor = 2
        data = rng.random(in_shape).astype(np.float32)
        serial = upsample_trilinear(data, factor)
        out_shape = tuple(s * factor for s in in_shape)

        nprocs = 8
        dec = BlockDecomposition(out_shape, nprocs)
        regions = []
        blocks = []
        for b in dec.blocks():
            region = input_region_for_output_block(b.start, b.count, in_shape, out_shape)
            regions.append(region)
            (rs, rc) = region
            blocks.append(data[rs[0] : rs[0] + rc[0], rs[1] : rs[1] + rc[1], rs[2] : rs[2] + rc[2]])

        res = MPIWorld.for_cores(nprocs).run(
            upsample_parallel_program, blocks, regions, in_shape, factor
        )
        assembled = np.empty(out_shape, dtype=np.float32)
        for b, out in zip(dec.blocks(), res.values):
            sl = tuple(slice(s, s + c) for s, c in zip(b.start, b.count))
            assembled[sl] = out
        assert np.allclose(assembled, serial, atol=1e-5)
