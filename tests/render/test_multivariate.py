"""Multivariate rendering and multi-variable collective reads."""

import numpy as np
import pytest

from repro.data import SupernovaModel, write_vh1_netcdf
from repro.pio import IOHints, NetCDFHandle, collective_read_blocks_multi, plan_read_blocks
from repro.render import Camera, TransferFunction, VolumeBlock, blank_image, composite_over
from repro.render.decomposition import BlockDecomposition
from repro.render.multivariate import (
    MultivariateTransfer,
    render_block_multivar,
    render_multivar_serial,
)
from repro.utils.errors import ConfigError, FormatError

GRID = (16, 16, 16)


@pytest.fixture(scope="module")
def model():
    return SupernovaModel(GRID, seed=31)


@pytest.fixture(scope="module")
def mvtf(model):
    primary = TransferFunction.supernova(*model.value_range("vx"))
    lo, hi = model.value_range("density")
    return MultivariateTransfer(primary, gate_lo=lo + 0.3 * (hi - lo), gate_hi=hi)


class TestMultivariateTransfer:
    def test_gate_zeroes_low_modulator(self, mvtf):
        _rgb, ext = mvtf.sample(np.array([0.9]), np.array([-10.0]))
        assert ext[0] == 0.0

    def test_gate_passes_high_modulator(self, model, mvtf):
        primary = TransferFunction.supernova(*model.value_range("vx"))
        _rgb, base = primary.sample(np.array([0.9]))
        _rgb2, gated = mvtf.sample(np.array([0.9]), np.array([100.0]))
        assert gated[0] == pytest.approx(base[0])

    def test_invalid_gate(self, model):
        primary = TransferFunction.grayscale_ramp()
        with pytest.raises(ConfigError):
            MultivariateTransfer(primary, 1.0, 1.0)


class TestMultivariateRender:
    def test_parallel_equals_serial(self, model, mvtf):
        vx = model.field("vx")
        density = model.field("density")
        cam = Camera.looking_at_volume(GRID, width=36, height=32)
        ref = render_multivar_serial(cam, vx, density, mvtf, step=0.8)
        dec = BlockDecomposition(GRID, 8)
        partials = []
        for b in dec.blocks():
            rs, rc, gl = b.ghost_read(GRID, ghost=1)
            sl = tuple(slice(s, s + c) for s, c in zip(rs, rc))
            p_blk = VolumeBlock(vx[sl], GRID, b.start, b.count, gl)
            m_blk = VolumeBlock(density[sl], GRID, b.start, b.count, gl)
            p = render_block_multivar(cam, p_blk, m_blk, mvtf, step=0.8)
            if p is not None:
                partials.append(p)
        img = composite_over(blank_image(36, 32), partials)
        assert np.abs(img - ref).max() < 5e-3

    def test_gating_changes_image(self, model, mvtf):
        vx = model.field("vx")
        density = model.field("density")
        cam = Camera.looking_at_volume(GRID, width=24, height=24)
        gated = render_multivar_serial(cam, vx, density, mvtf, step=0.8)
        primary = TransferFunction.supernova(*model.value_range("vx"))
        from repro.render import render_volume_serial

        ungated = render_volume_serial(cam, vx, primary, step=0.8)
        assert not np.allclose(gated, ungated, atol=1e-3)
        # Gating removes material; total opacity cannot grow.
        assert gated[..., 3].sum() <= ungated[..., 3].sum() + 1e-3

    def test_mismatched_blocks_rejected(self, model, mvtf):
        cam = Camera.looking_at_volume(GRID, width=16, height=16)
        a = VolumeBlock.whole(model.field("vx"))
        b = VolumeBlock(model.field("density")[:8], GRID, (0, 0, 0), (8, 16, 16))
        with pytest.raises(ConfigError, match="same region"):
            render_block_multivar(cam, a, b, mvtf)

    @pytest.mark.parametrize("et", [0.0, -1.0, 1.5, float("nan")])
    def test_bad_early_termination_rejected(self, model, mvtf, et):
        # 0 and NaN used to finish every ray before its first sample and
        # return None, a silently blank block, where render_block raises.
        cam = Camera.looking_at_volume(GRID, width=16, height=16)
        vx = VolumeBlock.whole(model.field("vx"))
        density = VolumeBlock.whole(model.field("density"))
        assert render_block_multivar(cam, vx, density, mvtf) is not None
        with pytest.raises(ConfigError, match="early_termination"):
            render_block_multivar(cam, vx, density, mvtf, early_termination=et)


class TestMultiVariableRead:
    def test_reads_both_variables(self, model):
        nc = write_vh1_netcdf(model)
        handles = [NetCDFHandle(nc, "vx"), NetCDFHandle(nc, "density")]
        dec = BlockDecomposition(GRID, 8)
        blocks = [(b.start, b.count) for b in dec.blocks()]
        out, report = collective_read_blocks_multi(
            handles, blocks, IOHints(cb_buffer_size=4096, cb_nodes=2)
        )
        vx = model.field("vx")
        density = model.field("density")
        for (start, count), rank_vars in zip(blocks, out):
            sl = tuple(slice(s, s + c) for s, c in zip(start, count))
            assert np.array_equal(rank_vars["vx"], vx[sl])
            assert np.array_equal(rank_vars["density"], density[sl])
        assert report.requested_bytes == vx.nbytes + density.nbytes

    def test_combined_read_density_beats_single(self, model):
        """Wanting several record variables amortizes the interleaving:
        the combined read's density exceeds one variable's."""
        nc = write_vh1_netcdf(model)
        hints = IOHints(cb_buffer_size=1 << 14, cb_nodes=2)
        single = plan_read_blocks(NetCDFHandle(nc, "vx"), nprocs=8, hints=hints)
        dec = BlockDecomposition(GRID, 8)
        blocks = [(b.start, b.count) for b in dec.blocks()]
        handles = [NetCDFHandle(nc, n) for n in ("pressure", "density", "vx", "vy", "vz")]
        _out, combined = collective_read_blocks_multi(handles, blocks, hints)
        assert combined.density > 1.5 * single.density
        assert combined.density > 0.9

    def test_different_files_rejected(self, model):
        nc1 = write_vh1_netcdf(model)
        nc2 = write_vh1_netcdf(model)
        with pytest.raises(FormatError, match="same file"):
            collective_read_blocks_multi(
                [NetCDFHandle(nc1, "vx"), NetCDFHandle(nc2, "vy")],
                [((0, 0, 0), GRID)],
            )

    def test_empty_handles_rejected(self):
        with pytest.raises(FormatError, match="at least one"):
            collective_read_blocks_multi([], [((0, 0, 0), (4, 4, 4))])
