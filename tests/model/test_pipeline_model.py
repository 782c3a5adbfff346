"""Frame model: the paper's headline shapes, asserted."""

import pytest

from repro.model.pipeline import DATASETS, IO_MODES, FrameModel, PaperDataset
from repro.utils.errors import ConfigError


@pytest.fixture(scope="module")
def fm():
    return FrameModel(DATASETS["1120"])


class TestDatasets:
    def test_paper_grid_image_pairs(self):
        assert DATASETS["1120"].image == 1600
        assert DATASETS["2240"].image == 2048
        assert DATASETS["4480"].image == 4096

    def test_sizes_match_paper(self):
        # "in raw mode our file size is over 5 GB per variable"
        assert DATASETS["1120"].volume_bytes == pytest.approx(5.6e9, rel=0.05)
        # "in netCDF mode the size is 27 GB"
        assert DATASETS["1120"].netcdf_bytes == pytest.approx(28.1e9, rel=0.05)
        # Table II: 42 GB and 335 GB time steps
        assert DATASETS["2240"].volume_bytes == pytest.approx(45e9, rel=0.08)
        assert DATASETS["4480"].volume_bytes == pytest.approx(360e9, rel=0.08)

    def test_element_counts(self):
        # ~1.4, ~11, ~90 billion elements.
        assert DATASETS["1120"].grid**3 == pytest.approx(1.4e9, rel=0.05)
        assert DATASETS["2240"].grid**3 == pytest.approx(11.2e9, rel=0.05)
        assert DATASETS["4480"].grid**3 == pytest.approx(90e9, rel=0.02)


class TestFig3Shapes:
    def test_best_total_at_16k(self, fm):
        """"The best all-inclusive frame time of 5.9 s was achieved with
        16K cores.\""""
        totals = {c: fm.estimate(c).total_s for c in (4096, 8192, 16384, 32768)}
        best = min(totals, key=totals.get)
        assert best == 16384
        assert 4.5 < totals[16384] < 8.0  # near the paper's 5.9 s

    def test_vis_only_time_near_paper(self, fm):
        """"our visualization-only time (rendering + compositing) is 0.6 s"."""
        e = fm.estimate(16384)
        assert 0.3 < e.vis_only_s < 0.9

    def test_total_decreases_from_64_to_16k(self, fm):
        totals = [fm.estimate(c).total_s for c in (64, 256, 1024, 4096, 16384)]
        assert totals == sorted(totals, reverse=True)

    def test_render_curve_linear(self, fm):
        r = [fm.render_stage(c).seconds for c in (64, 128, 256)]
        assert r[0] / r[1] == pytest.approx(2.0, rel=0.01)
        assert r[1] / r[2] == pytest.approx(2.0, rel=0.01)


class TestFig5And6Shapes:
    def test_larger_problems_take_longer(self):
        at_8k = [FrameModel(DATASETS[n]).estimate(8192).total_s for n in ("1120", "2240", "4480")]
        assert at_8k[0] < at_8k[1] < at_8k[2]

    def test_any_size_feasible_at_2k_cores(self):
        """Fig. 5: "even at 2K or 4K cores, any of the problem sizes can
        be visualized, given enough time.\""""
        for name in DATASETS:
            est = FrameModel(DATASETS[name]).estimate(2048)
            assert est.total_s < 3600

    def test_io_fraction_grows_with_cores(self, fm):
        """Fig. 6: I/O's share grows as render shrinks."""
        pct = [fm.estimate(c).pct_io for c in (64, 1024, 16384)]
        assert pct[0] < pct[1] < pct[2]
        assert pct[2] > 85

    def test_io_dominates_at_scale(self, fm):
        e = fm.estimate(8192)
        assert e.pct_io > e.pct_render + e.pct_composite


class TestTable2Shapes:
    @pytest.mark.parametrize("name,total_lo,total_hi", [("2240", 20, 80), ("4480", 150, 450)])
    def test_totals_in_paper_band(self, name, total_lo, total_hi):
        fm = FrameModel(DATASETS[name])
        for cores in (8192, 16384, 32768):
            t = fm.estimate(cores).total_s
            assert total_lo < t < total_hi, (name, cores, t)

    def test_io_percentage_like_paper(self):
        """Table II: ~96% of frame time is I/O at large sizes."""
        for name in ("2240", "4480"):
            fm = FrameModel(DATASETS[name])
            for cores in (8192, 16384, 32768):
                assert fm.estimate(cores).pct_io > 88

    def test_composite_percentage_small(self):
        for name in ("2240", "4480"):
            fm = FrameModel(DATASETS[name])
            assert fm.estimate(32768).pct_composite < 5


class TestConfigHandling:
    def test_unknown_io_mode_rejected(self, fm):
        with pytest.raises(ConfigError, match="unknown io mode"):
            fm.io_report("parquet", 64)

    def test_all_io_modes_work(self, fm):
        for mode in IO_MODES:
            st = fm.io_stage(mode, 256)
            assert st.seconds > 0

    def test_custom_dataset(self):
        d = PaperDataset("tiny", 64, 128)
        fm = FrameModel(d)
        e = fm.estimate(64)
        assert e.total_s > 0


def core_seconds(fm, cores):
    """Machine cost of one frame: cores x wall time."""
    return cores * fm.estimate(cores).total_s


class TestMachineCost:
    def test_core_seconds_grow_with_partition(self, fm):
        """The Fig. 5 remark, quantified: past the render-bound regime
        the machine cost per frame rises steeply with partition size."""
        costs = {c: core_seconds(fm, c) for c in (512, 2048, 16384, 32768)}
        assert costs[2048] < costs[16384] < costs[32768]
        # At 32K the frame costs ~9x the core-seconds of the 2K run.
        assert costs[32768] > 8 * costs[2048]

    def test_small_partitions_render_bound_cost_flat(self, fm):
        """While rendering dominates, doubling cores is nearly free in
        core-seconds (the work is the same, just spread out)."""
        c64 = core_seconds(fm, 64)
        c128 = core_seconds(fm, 128)
        assert c128 < 1.5 * c64
