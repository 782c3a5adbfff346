"""ProgressiveRenderer: real frames per level, bitwise-exact final."""

import numpy as np
import pytest

from repro.core import ParallelVolumeRenderer
from repro.data import SupernovaModel, extract_variable_raw
from repro.obs import Tracer
from repro.pio import RawHandle
from repro.progressive import ProgressiveRenderer, ladder_edges
from repro.render import Camera, TransferFunction
from repro.utils.errors import ConfigError
from repro.vmpi import MPIWorld, ParallelConfig

GRID = (12, 12, 12)
IMAGE = 24
CORES = 8


def make_renderer(compositor="directsend", workers=1):
    model = SupernovaModel(GRID, seed=1530)
    handle = RawHandle(extract_variable_raw(model, "vx"))
    camera = Camera.looking_at_volume(GRID, width=IMAGE, height=IMAGE)
    tf = TransferFunction.supernova(*model.value_range("vx"))
    parallel = ParallelConfig(workers=workers) if workers > 1 else None
    renderer = ParallelVolumeRenderer(
        MPIWorld.for_cores(CORES), camera, tf, step=0.8,
        parallel=parallel, compositor=compositor,
    )
    return renderer, handle, model.field("vx")


class TestLadder:
    @pytest.mark.parametrize("compositor", ["directsend", "dfb"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_final_level_bitwise_identical_to_direct(self, compositor, workers):
        """The oracle: the ladder's last level IS the direct render —
        image, stage timings, message count, bytes on the wire."""
        renderer, handle, field = make_renderer(compositor, workers)
        ladder = ProgressiveRenderer(renderer, levels=3).render_ladder(
            handle, field=field
        )
        oracle_renderer, oracle_handle, _ = make_renderer(compositor, workers)
        direct = oracle_renderer.render_frame(oracle_handle)
        final = ladder.final
        assert final is not None
        assert np.array_equal(final.image, direct.image)
        assert final.timing == direct.timing
        assert final.messages == direct.messages
        assert final.bytes_sent == direct.bytes_sent

    def test_levels_refine_coarse_to_fine(self):
        renderer, handle, field = make_renderer()
        result = ProgressiveRenderer(renderer, levels=3).render_ladder(
            handle, field=field
        )
        assert [lf.width for lf in result.levels] == list(ladder_edges(IMAGE, 3))
        assert [lf.scale for lf in result.levels] == [4, 2, 1]
        assert result.accounting_failures() == []

    def test_ttfp_is_first_delivery_and_clock_is_serial(self):
        renderer, handle, field = make_renderer()
        result = ProgressiveRenderer(renderer, levels=3).render_ladder(
            handle, field=field
        )
        assert result.ttfp_s == result.levels[0].t_done_s
        assert result.ttfp_s < result.total_s
        for a, b in zip(result.levels, result.levels[1:]):
            assert b.t_start_s == pytest.approx(a.t_done_s)

    def test_single_level_ladder_is_a_direct_render(self):
        renderer, handle, field = make_renderer()
        result = ProgressiveRenderer(renderer, levels=1).render_ladder(
            handle, field=field
        )
        oracle_renderer, oracle_handle, _ = make_renderer()
        direct = oracle_renderer.render_frame(oracle_handle)
        assert len(result.levels) == 1
        assert np.array_equal(result.final.image, direct.image)
        assert result.accounting_failures() == []

    def test_trace_spans_reconcile(self):
        renderer, handle, field = make_renderer()
        tracer = Tracer(enabled=True)
        result = ProgressiveRenderer(renderer, levels=3, tracer=tracer).render_ladder(
            handle, field=field
        )
        assert result.accounting_failures() == []  # includes span counts
        from repro.obs.tracer import CAT_PROGRESSIVE

        spans = [s for s in tracer.spans if s.cat == CAT_PROGRESSIVE]
        assert sum(1 for s in spans if s.name == "level") == 3
        assert sum(1 for s in spans if s.name == "ttfp") == 1

    def test_rejects_bad_levels(self):
        renderer, _, _ = make_renderer()
        with pytest.raises(ConfigError):
            ProgressiveRenderer(renderer, levels=0)


class TestDegradeTruncation:
    """A camera move truncates the ladder to its coarse (degraded)
    levels; un-started levels never touch the store."""

    @pytest.mark.parametrize("cancel_after_s", (1e-6, 1e9))
    def test_prepare_prices_io_without_reading(self, cancel_after_s, monkeypatch):
        """With the pyramid's field given, preparing the ladder reads
        nothing from the store: every byte the store serves is the
        final level's own priced collective read, and a move before
        the final level starts leaves the store unread."""
        renderer, handle, field = make_renderer()
        reads = []
        read = handle.store.read
        monkeypatch.setattr(
            handle.store, "read", lambda off, n: reads.append((off, n)) or read(off, n)
        )
        ladder = ProgressiveRenderer(renderer, levels=3)
        plan = ladder.prepare(handle, field=field)
        assert plan.scales == (4, 2, 1)
        assert reads == []
        result = ladder.render_ladder(handle, field=field, cancel_after_s=cancel_after_s)
        assert result.cancelled == (cancel_after_s < 1)
        assert result.accounting_failures() == []
        read_bytes = sum(n for _, n in reads)
        if result.final is None:
            assert read_bytes == 0
        else:
            assert read_bytes == result.final.io_report.physical_bytes > 0
