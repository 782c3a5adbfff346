"""Camera-move cancellation: ``render_ladder(cancel_after_s=...)``."""

import numpy as np
import pytest

from repro.progressive import ProgressiveRenderer

from tests.progressive.test_renderer import make_renderer


@pytest.fixture(scope="module")
def reference_ladder():
    """One complete ladder, for its level clock (and oracle frames)."""
    renderer, handle, field = make_renderer()
    return ProgressiveRenderer(renderer, levels=3).render_ladder(handle, field=field)


def run_session(cancel_after_s):
    renderer, handle, field = make_renderer()
    ladder = ProgressiveRenderer(renderer, levels=3)
    return ladder.render_ladder(handle, field=field, cancel_after_s=cancel_after_s)


class TestCancellation:
    def test_no_move_runs_to_completion(self, reference_ladder):
        result = run_session(None)
        assert len(result.levels) == 3
        assert not result.cancelled
        assert result.final is not None
        assert result.accounting_failures() == []

    def test_move_during_first_level_keeps_only_coarsest(self, reference_ladder):
        """The in-flight level completes; everything un-started dies.
        A ladder always delivers at least the coarsest preview."""
        t = reference_ladder.levels[0].t_done_s / 2
        result = run_session(t)
        assert len(result.levels) == 1
        assert result.cancelled
        assert result.cancelled_levels == 2
        assert result.levels[0].scale == 4
        assert result.final is None
        assert result.accounting_failures() == []

    def test_move_mid_ladder_cancels_the_tail(self, reference_ladder):
        ends = [lf.t_done_s for lf in reference_ladder.levels]
        result = run_session((ends[0] + ends[1]) / 2)
        assert len(result.levels) == 2
        assert result.cancelled
        assert result.final is None  # full-res level never started
        assert result.accounting_failures() == []

    def test_move_at_level_boundary_beats_the_next_level(self, reference_ladder):
        """A move at exactly a level's end time wins the tie, so the
        next level never starts."""
        result = run_session(reference_ladder.levels[0].t_done_s)
        assert len(result.levels) == 1
        assert result.cancelled
        assert result.accounting_failures() == []

    def test_move_during_final_level_cancels_nothing(self, reference_ladder):
        ends = [lf.t_done_s for lf in reference_ladder.levels]
        result = run_session((ends[1] + ends[2]) / 2)
        assert len(result.levels) == 3
        assert not result.cancelled
        assert result.final is not None
        assert result.accounting_failures() == []

    def test_delivered_levels_match_the_eager_ladder(self, reference_ladder):
        """An interrupted ladder renders the same frames on the same
        clock as a patient one — cancellation only removes the tail."""
        ends = [lf.t_done_s for lf in reference_ladder.levels]
        result = run_session((ends[0] + ends[1]) / 2)
        for got, want in zip(result.levels, reference_ladder.levels):
            assert np.array_equal(got.frame.image, want.frame.image)
            assert got.t_start_s == pytest.approx(want.t_start_s)
            assert got.t_done_s == pytest.approx(want.t_done_s)

    def test_cancel_time_is_recorded(self, reference_ladder):
        t = reference_ladder.levels[0].t_done_s / 2
        result = run_session(t)
        assert result.cancel_after_s == t
