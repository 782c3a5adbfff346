"""Campaign jobs: orbit animations submitted as one pipelined unit.

A campaign session rolls its whole fly-around into a single job — one
queue slot, one partition, one payload carrying every frame — and the
backend prices (model) or renders (execute) it through the same
pipelined schedule the core campaign driver uses.  The ledger identities
must keep balancing: ``accounting_failures()`` stays empty, the payload
carries exactly the promised frame count, and the pipelined makespan
never exceeds the no-overlap campaign time.
"""

import dataclasses

import numpy as np
import pytest

from repro.farm.backends import CampaignPayload
from repro.farm.request import FrameRequest
from repro.farm.scenario import FarmScenario, SessionSpec, SizePolicy
from repro.farm.workload import Workload
from repro.obs.tracer import Tracer
from repro.utils.errors import ConfigError


def model_scenario(**session_kw):
    kw = dict(
        name="anim0", kind="orbit", campaign=True, requests=8,
        orbit_deg=15.0, prefetch_depth=1, arrival="open", rate_hz=0.05,
        cores=4096,
    )
    kw.update(session_kw)
    return FarmScenario(
        sessions=(
            SessionSpec(**kw),
            SessionSpec(name="browse0", kind="browse", requests=5,
                        arrival="open", rate_hz=0.05, cores=4096),
        ),
        mode="model",
    )


def execute_scenario(depth=1, frames=4):
    return FarmScenario(
        sessions=(
            SessionSpec(name="anim0", kind="orbit", campaign=True,
                        requests=frames, orbit_deg=20.0, prefetch_depth=depth,
                        arrival="closed", think_s=0.1, cores=16, dataset="mini"),
        ),
        mode="execute",
        total_nodes=64,
        size_policy=SizePolicy(min_nodes=16, max_nodes=16),
        alloc_overhead_s=0.1,
    )


class TestCampaignShape:
    def test_campaign_session_submits_once(self):
        spec = SessionSpec(name="a", kind="orbit", campaign=True, requests=8)
        assert spec.submissions == 1
        req = spec.request(0)
        assert req.is_campaign and req.frames == 8
        assert req.orbit_deg == spec.orbit_deg
        assert req.prefetch_depth == spec.prefetch_depth

    def test_campaign_requires_orbit(self):
        with pytest.raises(ConfigError):
            SessionSpec(name="a", kind="browse", campaign=True)
        with pytest.raises(ConfigError):
            SessionSpec(name="a", kind="orbit", campaign=True, prefetch_depth=-1)

    def test_workload_counts_jobs_and_frames(self):
        w = Workload(sessions=(
            SessionSpec(name="a", kind="orbit", campaign=True, requests=8),
            SessionSpec(name="b", kind="browse", requests=5),
        ))
        assert w.total_requests == 6  # 1 campaign job + 5 browse

    def test_frame_key_carries_animation_not_depth(self):
        base = dict(session="s", seq=0, dataset="1120", step=0,
                    azimuth_deg=30.0, elevation_deg=20.0)
        a = FrameRequest(**base, frames=8, orbit_deg=15.0, prefetch_depth=1)
        b = FrameRequest(**base, frames=8, orbit_deg=15.0, prefetch_depth=3)
        c = FrameRequest(**base, frames=8, orbit_deg=30.0, prefetch_depth=1)
        single = FrameRequest(**base)
        assert a.frame_key == b.frame_key  # depth changes when, not what
        assert a.frame_key != c.frame_key  # different animation
        assert a.frame_key != single.frame_key  # not the single frame


class TestModelCampaigns:
    def test_books_balance(self):
        tracer = Tracer(enabled=True)
        res = model_scenario().run(tracer)
        assert res.accounting_failures() == []
        assert res.campaigns == 1
        assert res.campaign_frames == 8
        assert sum(r.request.frames for r in res.records) == 13

    def test_payload_promises_kept(self):
        res = model_scenario().run()
        (rec,) = res.campaign_records()
        payload = rec.payload
        assert isinstance(payload, CampaignPayload)
        assert payload.frames == rec.request.frames == 8
        assert payload.makespan_s <= payload.sequential_s
        assert rec.serve_s == pytest.approx(payload.makespan_s)

    def test_prefetch_overlaps_io(self):
        """Depth 1 must beat depth 0 on the priced campaign (io > 0, rc > 0)."""
        d0 = model_scenario(prefetch_depth=0).run()
        d1 = model_scenario(prefetch_depth=1).run()
        p0 = d0.campaign_records()[0].payload
        p1 = d1.campaign_records()[0].payload
        assert p0.makespan_s == pytest.approx(p0.sequential_s)
        assert p1.makespan_s < p0.makespan_s
        assert p1.overlap_saved_s > 0

    def test_stats_surface_in_summary(self):
        res = model_scenario().run()
        stats = res.campaign_stats()
        assert stats["campaigns"] == 1 and stats["frames"] == 8
        assert stats["frames_per_s"]["mean"] > 0
        assert stats["prefetch_depths"] == [1]
        assert res.summary()["campaigns"] == stats
        assert "campaigns" in res.report()

    def test_no_campaigns_no_section(self):
        plain = FarmScenario(
            sessions=(SessionSpec(name="b", kind="browse", requests=4,
                                  arrival="open", rate_hz=0.05),),
            mode="model",
        ).run()
        assert plain.campaign_stats() is None
        assert "campaigns" not in plain.summary()


class TestExecuteCampaigns:
    def test_renders_all_frames_with_clean_books(self):
        tracer = Tracer(enabled=True)
        res = execute_scenario(depth=2, frames=4).run(tracer)
        assert res.accounting_failures() == []
        (rec,) = res.campaign_records()
        payload = rec.payload
        assert payload.frames == 4
        assert len(payload.detail) == 4  # the rendered images
        for img in payload.detail:
            assert isinstance(img, np.ndarray) and np.isfinite(img).all()
        # Orbit frames differ from each other.
        assert not np.allclose(payload.detail[0], payload.detail[-1], atol=1e-4)

    def test_depth_invariant_frames(self):
        """The delivered images are bitwise depth-independent."""
        r0 = execute_scenario(depth=0).run()
        r2 = execute_scenario(depth=2).run()
        for a, b in zip(r0.campaign_records()[0].payload.detail,
                        r2.campaign_records()[0].payload.detail):
            assert np.array_equal(a, b)

    def test_json_scenario_roundtrip(self):
        spec = {
            "mode": "execute",
            "total_nodes": 64,
            "size_policy": {"min_nodes": 16, "max_nodes": 16},
            "sessions": [
                {"name": "anim0", "kind": "orbit", "campaign": True,
                 "requests": 3, "orbit_deg": 30.0, "prefetch_depth": 2,
                 "arrival": "closed", "think_s": 0.1, "cores": 16,
                 "dataset": "mini"},
            ],
        }
        scenario = FarmScenario.from_dict(spec)
        assert scenario.sessions[0].campaign
        res = scenario.run()
        assert res.campaigns == 1
        assert res.accounting_failures() == []
