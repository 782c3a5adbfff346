"""ProgressiveRenderer: real frames per level, bitwise-exact final."""

import numpy as np
import pytest

from repro.core import ParallelVolumeRenderer
from repro.core.pipeline import DegradePolicy
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


def make_renderer(compositor="directsend", workers=1, degrade=None):
    model = SupernovaModel(GRID, seed=1530)
    handle = RawHandle(extract_variable_raw(model, "vx"))
    camera = Camera.looking_at_volume(GRID, width=IMAGE, height=IMAGE)
    tf = TransferFunction.supernova(*model.value_range("vx"))
    parallel = ParallelConfig(workers=workers) if workers > 1 else None
    renderer = ParallelVolumeRenderer(
        MPIWorld.for_cores(CORES), camera, tf, step=0.8,
        parallel=parallel, compositor=compositor, degrade=degrade,
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

    def test_preview_upsamples_to_final_resolution(self):
        renderer, handle, field = make_renderer()
        result = ProgressiveRenderer(renderer, levels=3).render_ladder(
            handle, field=field
        )
        preview = result.preview(0)
        assert preview.shape == result.final.image.shape
        # A large tolerance is met by the first level already; tighter
        # ones only later — time to quality is monotone in the bound.
        loose = result.time_to_quality(10.0)
        assert loose == result.levels[0].t_done_s
        exact = result.time_to_quality(0.0)
        assert exact == result.total_s

    def test_rejects_bad_levels(self):
        renderer, _, _ = make_renderer()
        with pytest.raises(ConfigError):
            ProgressiveRenderer(renderer, levels=0)


class TestDegradeTruncation:
    def test_deadline_pressure_drops_intermediates(self):
        """A DegradePolicy the full-res I/O alone engages truncates the
        ladder to (coarsest, final) — never a degraded final frame."""
        degrade = DegradePolicy(frame_deadline_s=1e-6)
        renderer, handle, field = make_renderer(degrade=degrade)
        result = ProgressiveRenderer(renderer, levels=3).render_ladder(
            handle, field=field
        )
        assert result.truncated
        assert len(result.levels) == 2
        assert result.levels[0].scale == 4 and result.levels[-1].scale == 1
        assert result.accounting_failures() == []
        # The final frame still matches the direct render bitwise: the
        # per-frame degrade is held off inside the ladder.
        oracle_renderer, oracle_handle, _ = make_renderer()
        direct = oracle_renderer.render_frame(oracle_handle)
        assert np.array_equal(result.final.image, direct.image)
        assert not result.final.degraded

    @pytest.mark.parametrize("deadline_s", (1e-6, 1e9))
    def test_prepare_prices_io_without_reading(self, deadline_s, monkeypatch):
        """The ladder's degrade check prices the read's plan: with the
        pyramid's field given, preparing reads nothing from the store."""
        renderer, handle, field = make_renderer(
            degrade=DegradePolicy(frame_deadline_s=deadline_s)
        )
        reads = []
        read = handle.store.read
        monkeypatch.setattr(
            handle.store, "read", lambda off, n: reads.append((off, n)) or read(off, n)
        )
        plan = ProgressiveRenderer(renderer, levels=3).prepare(handle, field=field)
        assert plan.truncated == (deadline_s < 1)
        assert reads == []

    def test_loose_deadline_keeps_every_level(self):
        degrade = DegradePolicy(frame_deadline_s=1e9)
        renderer, handle, field = make_renderer(degrade=degrade)
        result = ProgressiveRenderer(renderer, levels=3).render_ladder(
            handle, field=field
        )
        assert not result.truncated
        assert len(result.levels) == 3
