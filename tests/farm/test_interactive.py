"""Interactive sessions: progressive ladders through the render farm."""

import pathlib

import pytest

from repro.farm import (
    BUILTIN_SCENARIOS,
    FarmScenario,
    ProgressivePayload,
    RenderFarm,
    SessionSpec,
    SizePolicy,
    Workload,
    check,
)
from repro.farm.request import FrameRequest
from repro.utils.errors import ConfigError

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def model_interactive_scenario(dwell_s: float) -> FarmScenario:
    """One fidgety-or-patient viewer at paper scale; unique frames
    (the 10-degree orbit never wraps), so every ladder renders."""
    sessions = (
        SessionSpec(
            name="viewer0", kind="interactive", arrival="closed", requests=12,
            think_s=30.0, cores=2048, orbit_deg=10.0, dataset="1120",
            levels=4, dwell_s=dwell_s,
        ),
    )
    return FarmScenario(
        sessions=sessions,
        seed=1530,
        mode="model",
        total_nodes=4096,
        slo_s=120.0,
        alloc_overhead_s=0.0,
        result_cache_entries=256,
        size_policy=SizePolicy(min_nodes=512, max_nodes=2048),
    )


class TestSessionSpec:
    def test_interactive_needs_a_real_ladder(self):
        with pytest.raises(ConfigError, match="levels >= 2"):
            SessionSpec(name="i", kind="interactive", arrival="closed",
                        requests=1, levels=1)

    def test_dwell_must_be_non_negative(self):
        with pytest.raises(ConfigError, match="dwell_s"):
            SessionSpec(name="i", kind="interactive", arrival="closed",
                        requests=1, dwell_s=-1.0)

    def test_request_carries_ladder_depth_and_dwell(self):
        spec = SessionSpec(name="i", kind="interactive", arrival="closed",
                           requests=2, levels=3, dwell_s=4.0)
        req = spec.request(0, cancel_after_s=2.5)
        assert req.levels == 3
        assert req.cancel_after_s == 2.5
        assert req.is_progressive

    def test_non_interactive_kinds_ignore_ladder_fields(self):
        spec = SessionSpec(name="b", kind="browse", arrival="closed",
                           requests=2, levels=5, dwell_s=4.0)
        req = spec.request(0, cancel_after_s=2.5)
        assert req.levels == 1
        assert req.cancel_after_s is None
        assert not req.is_progressive

    def test_dwell_times_deterministic_and_patient_means_never(self):
        fidget = SessionSpec(name="i", kind="interactive", arrival="closed",
                             requests=4, dwell_s=5.0)
        assert list(fidget.dwell_times(7)) == list(fidget.dwell_times(7))
        assert all(d > 0 for d in fidget.dwell_times(7))
        patient = SessionSpec(name="p", kind="interactive", arrival="closed",
                              requests=4, dwell_s=0.0)
        assert not patient.dwell_times(7).any()


class TestFrameKey:
    def kwargs(self, **over):
        base = dict(session="s", seq=0, dataset="mini", step=0,
                    azimuth_deg=30.0, elevation_deg=0.0, cores=64)
        base.update(over)
        return base

    def test_ladder_depth_is_part_of_the_identity(self):
        flat = FrameRequest(**self.kwargs())
        ladder = FrameRequest(**self.kwargs(levels=4))
        assert flat.frame_key != ladder.frame_key

    def test_dwell_is_not_part_of_the_identity(self):
        """Truncated ladders are never stored under the full frame key,
        so the cancel time must not fragment the cache."""
        a = FrameRequest(**self.kwargs(levels=4, cancel_after_s=None))
        b = FrameRequest(**self.kwargs(levels=4, cancel_after_s=3.0))
        assert a.frame_key == b.frame_key

    def test_level_keys_are_distinct(self):
        req = FrameRequest(**self.kwargs(levels=4))
        keys = {req.level_key(i) for i in range(3)} | {req.frame_key}
        assert len(keys) == 4


class TestNodeSecondsReclaim:
    def test_camera_moves_strictly_reduce_node_seconds(self):
        """The acceptance identity: against the same traffic, the
        fidgety arm's utilized node-seconds are the patient arm's minus
        exactly what cancellation reclaimed — and strictly fewer."""
        patient = model_interactive_scenario(dwell_s=0.0).run()
        fidget = model_interactive_scenario(dwell_s=5.0).run()
        assert patient.accounting_failures() == []
        assert fidget.accounting_failures() == []

        assert patient.progressive_stats()["cancelled"] == 0
        assert patient.cancelled_node_s == 0.0
        assert fidget.progressive_stats()["cancelled"] > 0
        assert fidget.cancelled_node_s > 0.0
        assert fidget.util_node_seconds < patient.util_node_seconds
        assert fidget.util_node_seconds + fidget.cancelled_node_s == pytest.approx(
            patient.util_node_seconds, abs=1e-6
        )

    def test_ttfp_meets_an_slo_the_full_frame_misses(self):
        result = model_interactive_scenario(dwell_s=0.0).run()
        stats = result.progressive_stats()
        assert stats["ttfp_speedup"] >= 3.0
        for r in result.records:
            assert r.ttfp_s <= r.latency_s + 1e-9


class TieLadderBackend:
    """Four-level ladders whose second level ends exactly at the
    viewer's camera move (``level_end_s[1] == cancel_after_s``)."""

    name = "tie-ladder"
    plan_hits = 0
    plan_misses = 0

    def render(self, request, cores):
        move = float(request.cancel_after_s)
        ends = (move / 2, move, 1.5 * move, 2.0 * move)
        payload = ProgressivePayload(
            levels=4, edges=(8, 16, 32, 64), level_end_s=ends, sequential_full_s=ends[-1]
        )
        return payload.total_s, payload


class TestLadderCut:
    def test_move_at_level_boundary_beats_the_next_level(self):
        """The farm twin of the session test: a move at exactly a level's
        end stops the next level, as in ``render_ladder``."""
        viewer = SessionSpec(
            name="viewer", kind="interactive", arrival="closed", requests=1,
            levels=4, dwell_s=5.0,
        )
        farm = RenderFarm(
            Workload(sessions=(viewer,), seed=3), TieLadderBackend(), total_nodes=512,
            size_policy=SizePolicy(min_nodes=64, max_nodes=64),
        )
        result = farm.run()
        (record,) = result.records
        assert record.request.cancel_after_s == record.payload.level_end_s[1]
        assert record.levels_done == 2
        assert record.ladder_cancelled
        assert result.ladders_cancelled == 1
        assert result.accounting_failures() == []


class TestSelftest:
    def test_interactive_selftest_invariants_hold(self):
        builtin = BUILTIN_SCENARIOS["interactive-selftest"]
        scenario = builtin.build()
        result = scenario.run()
        assert check(result, scenario, builtin.expects) == []
        stats = result.progressive_stats()
        assert stats["cancelled"] > 0
        assert stats["coarse_hits"] > 0
        assert result.cancelled_node_s > 0.0


class TestExampleSpec:
    def test_committed_example_loads_and_runs(self):
        path = REPO_ROOT / "examples" / "farm_interactive.json"
        scenario = FarmScenario.from_file(str(path))
        assert any(s.kind == "interactive" for s in scenario.sessions)
        result = scenario.run()
        assert result.accounting_failures() == []
        stats = result.progressive_stats()
        assert stats is not None
        assert stats["ttfp_speedup"] >= 3.0
        assert stats["cancelled"] > 0
