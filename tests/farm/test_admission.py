"""Admission control and autoscaling: shedding, token buckets, the pool.

Pinned properties:

* token buckets refill on the *simulated* clock: ``burst`` requests
  pass back-to-back, then admissions are paced at ``rate_hz``;
* only new render work spends tokens — cache hits, edge hits, and
  coalesced attaches are never shed;
* rejections are explicit accounting: flagged records in
  ``FarmResult.rejected``, excluded from served latency percentiles,
  reconciled against the admission counters and ``reject`` spans;
* a closed session whose request is shed still makes progress;
* autoscaling fences the allocator: the static pool bills exactly
  ``nodes × makespan`` node-seconds, the reactive pool grows under
  queue pressure, shrinks when idle, and never bills more than the
  machine; shrink is skipped (not crashed) while the drain region is
  busy.
"""

import pytest

from repro.farm import (
    FarmScenario,
    ReactiveAutoscaler,
    RenderFarm,
    SessionSpec,
    SizePolicy,
    StaticPool,
    TierSpec,
    TokenBucketAdmission,
    Workload,
    check,
)
from repro.obs.tracer import CAT_ADMIT
from repro.utils.errors import ConfigError

from test_edge import crowd
from test_service import StubBackend, run_farm


def _load(**blocks) -> RenderFarm:
    """A one-session scenario with ``blocks``, loaded from JSON and built."""
    return FarmScenario.from_dict({"sessions": [{"name": "s"}], **blocks}).build()


class TestTokenBucket:
    def test_burst_then_paced(self):
        adm = TokenBucketAdmission({"free": TierSpec(rate_hz=1.0, burst=2)})
        assert adm.admit("free", 0.0)
        assert adm.admit("free", 0.0)  # burst depth
        assert not adm.admit("free", 0.0)  # bucket dry
        assert not adm.admit("free", 0.5)  # half a token: still dry
        assert adm.admit("free", 1.6)  # refilled on the clock
        assert adm.rejected["free"] == 2

    def test_unlimited_tier_always_admits(self):
        adm = TokenBucketAdmission({"free": TierSpec(rate_hz=0.001, burst=1)})
        for t in range(50):
            assert adm.admit("interactive", float(t) / 10)
        assert adm.admitted["interactive"] == 50
        assert adm.total_rejected == 0

    def test_default_spec_covers_unnamed_tiers(self):
        adm = TokenBucketAdmission(default=TierSpec(rate_hz=1.0, burst=1))
        assert adm.admit("anything", 0.0)
        assert not adm.admit("anything", 0.0)
        assert adm.admit("other", 0.0)  # its own bucket

    def test_spec_validation(self):
        with pytest.raises(ConfigError, match="rate_hz"):
            TierSpec(rate_hz=0.0)
        with pytest.raises(ConfigError, match="burst"):
            TierSpec(rate_hz=1.0, burst=0.5)
        with pytest.raises(ConfigError, match="limits nothing"):
            _load(admission={"tiers": {}})
        with pytest.raises(ConfigError, match=r"admission\.tiers\.free\.rate"):
            _load(admission={"tiers": {"free": {"rate": 1.0}}})
        adm = _load(admission={"tiers": {"free": {"rate_hz": 0.5, "burst": 4}}}).admission
        assert adm.tiers["free"].burst == 4


class TestFarmAdmission:
    def shed_farm(self, *, coalesce=True, k=16):
        # 16 distinct frames flash in from the free tier within 1 s;
        # the bucket admits 4 then sheds.  A standard-tier session runs
        # untouched alongside.
        sessions = (
            SessionSpec(name="flood", kind="browse", arrival="flash",
                        requests=k, burst_s=1.0, steps=k, cores=64,
                        tier="free"),
            SessionSpec(name="calm", arrival="closed", requests=4, steps=2,
                        cores=64, think_s=0.5),
        )
        return run_farm(
            sessions, seconds=5.0, total_nodes=512, min_nodes=16,
            max_nodes=16, coalesce=coalesce,
            admission=TokenBucketAdmission(
                {"free": TierSpec(rate_hz=0.5, burst=4)}
            ),
        )

    def test_overload_sheds_only_the_limited_tier(self):
        farm, result = self.shed_farm()
        assert len(result.rejected) > 0
        assert all(r.request.tier == "free" for r in result.rejected)
        assert all(r.rejected for r in result.rejected)
        # Served records never carry the flag; percentiles stay clean.
        assert not any(r.rejected for r in result.records)
        assert result.arrivals == 20
        spans = [s for s in result.trace.spans if s.cat == CAT_ADMIT]
        assert len(spans) == len(result.rejected)
        assert result.accounting_failures() == []

    def test_closed_session_survives_shedding(self):
        # Every 'calm' request completes even while the flood is shed.
        _, result = self.shed_farm()
        calm = [r for r in result.records if r.request.session == "calm"]
        assert len(calm) == 4

    def test_rejected_requests_never_render(self):
        farm, result = self.shed_farm()
        assert farm.backend.plan_misses == result.rendered
        assert result.rendered < result.arrivals

    def test_coalesced_and_cached_requests_are_never_shed(self):
        # A single-frame crowd from the limited tier: the primary
        # spends the only token, every duplicate coalesces for free.
        farm, result = run_farm(
            [crowd(12, tier="free")], seconds=30.0, total_nodes=64,
            min_nodes=64, max_nodes=64,
            admission=TokenBucketAdmission(
                {"free": TierSpec(rate_hz=0.01, burst=1)}
            ),
        )
        assert len(result.rejected) == 0
        assert result.coalesced == 11
        assert farm.admission.total_admitted == 1

    def test_run_ending_on_a_shed_request_finishes(self):
        """The last completion of the run is a rejection: nothing may be
        left waiting for a dispatch that a shed request never triggers
        (the scheduler used to be a coroutine, and this deadlocked)."""
        scenario = FarmScenario(
            sessions=(
                SessionSpec(name="a", kind="orbit", arrival="open", requests=3,
                            rate_hz=0.001, cores=256, tier="free"),
            ),
            seed=1, mode="model", total_nodes=2048,
            admission={"tiers": {"free": {"rate_hz": 1e-9, "burst": 1}}},
            size_policy=SizePolicy(min_nodes=64, max_nodes=64),
        )
        result = scenario.run()
        assert (result.arrivals, len(result.records), len(result.rejected)) == (3, 1, 2)
        assert result.records[-1].t_done < result.rejected[-1].t_done
        assert check(result, scenario) == []

    def test_summary_reconciles_per_tier(self):
        farm, result = self.shed_farm()
        s = result.summary()["admission"]
        assert s["rejected"] == len(result.rejected)
        assert s["per_tier"]["free"]["rejected"] == len(result.rejected)
        assert 0.0 < s["shed_rate"] < 1.0


class TestAutoscalePolicies:
    def test_reactive_targets(self):
        p = ReactiveAutoscaler(min_nodes=64, max_nodes=1024, interval_s=10.0)
        grow = p.target(now=0, provisioned=128, busy_nodes=128,
                        queue_depth=3, total_nodes=2048)
        assert grow == 256
        hold = p.target(now=0, provisioned=128, busy_nodes=64,
                        queue_depth=0, total_nodes=2048)
        assert hold == 128
        shrink = p.target(now=0, provisioned=128, busy_nodes=0,
                          queue_depth=0, total_nodes=2048)
        assert shrink == 64
        capped = p.target(now=0, provisioned=1024, busy_nodes=1024,
                          queue_depth=9, total_nodes=2048)
        assert capped == 1024  # clamped at max_nodes

    def test_spec_validation(self):
        with pytest.raises(ConfigError, match="policy"):
            _load(autoscale={"policy": "psychic"})
        with pytest.raises(ConfigError, match="needs 'nodes'"):
            _load(autoscale={"policy": "static"})
        with pytest.raises(ConfigError, match=r"autoscale\.max_node"):
            _load(autoscale={"policy": "reactive", "max_node": 8})
        with pytest.raises(ConfigError, match="min_nodes"):
            ReactiveAutoscaler(min_nodes=0)
        with pytest.raises(ConfigError, match="low_util"):
            ReactiveAutoscaler(low_util=0.9, high_util=0.5)
        assert isinstance(_load(autoscale={"policy": "static", "nodes": 64}).autoscaler,
                          StaticPool)
        assert isinstance(_load(autoscale={"policy": "reactive"}).autoscaler,
                          ReactiveAutoscaler)


class TestFarmAutoscale:
    def busy_sessions(self):
        return (
            SessionSpec(name="load", arrival="closed", requests=12, steps=12,
                        cores=64, think_s=0.0),
            SessionSpec(name="load2", arrival="closed", requests=12, steps=12,
                        cores=64, think_s=0.0),
        )

    def test_static_pool_bills_exactly_its_size(self):
        _, result = run_farm(
            self.busy_sessions(), seconds=5.0, total_nodes=512,
            min_nodes=16, max_nodes=16, cache_entries=0, coalesce=False,
            autoscaler=StaticPool(nodes=64),
        )
        assert result.provisioned_node_s == pytest.approx(64 * result.makespan_s)
        assert result.node_hours < 512 * result.makespan_s / 3600.0
        assert result.accounting_failures() == []

    def test_static_pool_caps_concurrency(self):
        # 64 provisioned nodes = at most 4 concurrent 16-node jobs.
        farm, _ = run_farm(
            self.busy_sessions(), seconds=5.0, total_nodes=512,
            min_nodes=16, max_nodes=16, cache_entries=0, coalesce=False,
            autoscaler=StaticPool(nodes=64),
        )
        for _, (lo, hi), _, _ in farm.allocation_log:
            assert hi <= 64  # never allocates behind the fence

    def test_reactive_pool_grows_under_pressure_and_shrinks_after(self):
        # A flash flood of distinct frames piles a queue on the 16-node
        # floor; the pool doubles toward it, drains the flood, then
        # halves back down while the closed tail spends most of the run
        # thinking.
        sessions = (
            SessionSpec(name="flood", kind="browse", arrival="flash",
                        requests=16, burst_s=1.0, steps=16, cores=64),
            SessionSpec(name="tail", kind="orbit", arrival="closed",
                        requests=4, steps=4, cores=64, think_s=40.0),
        )
        farm, result = run_farm(
            sessions, seconds={"flood": 10.0, "tail": 2.0}, total_nodes=512,
            min_nodes=16, max_nodes=16, cache_entries=0, coalesce=False,
            autoscaler=ReactiveAutoscaler(
                min_nodes=16, max_nodes=256, interval_s=5.0
            ),
        )
        a = result.autoscale
        assert a["scale_events"] > 0
        assert a["max_provisioned"] > 16  # grew under queue pressure
        assert a["max_provisioned"] <= 256
        # Shrank again once the flood drained.
        assert any(new < old for _, old, new in a["events"])
        assert a["final_provisioned"] < a["max_provisioned"]
        # Billed node-seconds sit strictly between always-min and machine.
        assert 16 * result.makespan_s < result.provisioned_node_s
        assert result.provisioned_node_s < 512 * result.makespan_s
        assert result.accounting_failures() == []

    def test_job_larger_than_pool_cap_fails_loudly(self):
        with pytest.raises(ConfigError, match="can provision at most"):
            run_farm(
                [SessionSpec(name="s", requests=1, arrival="closed", cores=1024)],
                total_nodes=512, min_nodes=256, max_nodes=256,
                autoscaler=ReactiveAutoscaler(min_nodes=16, max_nodes=64),
            )

    def test_autoscaled_runs_are_deterministic(self):
        def go():
            return run_farm(
                self.busy_sessions(), seconds=20.0, total_nodes=512,
                min_nodes=16, max_nodes=16, cache_entries=0,
                autoscaler=ReactiveAutoscaler(
                    min_nodes=16, max_nodes=256, interval_s=5.0
                ),
            )[1]

        assert go().summary() == go().summary()
