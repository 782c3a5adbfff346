"""The farm scheduler's invariants, cache semantics, and accounting.

The three properties the ISSUE pins:

* no two concurrently running jobs overlap in allocated nodes;
* EASY backfill never delays the head-of-queue job past its reservation;
* a warm frame-cache hit completes in zero simulated service time.

Plus: span/record reconciliation, determinism, and scenario parsing.
"""

import dataclasses
import gc
import json
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.farm import (
    FarmScenario,
    RenderFarm,
    SessionSpec,
    SizePolicy,
    Workload,
    default_scenario,
    flash_scenario,
    selftest_scenario,
)
from repro.fault.plan import FarmFaults
from repro.obs.tracer import CAT_FARM
from repro.utils.errors import ConfigError


class StubBackend:
    """Deterministic per-session service times; no real rendering."""

    name = "stub"

    def __init__(self, seconds=5.0):
        self.seconds = seconds
        self.plan_hits = 0
        self.plan_misses = 0

    def render(self, request, cores):
        self.plan_misses += 1
        s = (
            self.seconds[request.session]
            if isinstance(self.seconds, dict)
            else self.seconds
        )
        return float(s), ("frame", request.frame_key)


def run_farm(sessions, *, seconds=5.0, total_nodes=512, backfill=True,
             cache_entries=64, min_nodes=16, max_nodes=256,
             alloc_overhead_s=0.0, seed=11, **service_kwargs):
    farm = RenderFarm(
        Workload(sessions=tuple(sessions), seed=seed),
        StubBackend(seconds),
        total_nodes=total_nodes,
        size_policy=SizePolicy(min_nodes=min_nodes, max_nodes=max_nodes),
        result_cache_entries=cache_entries,
        backfill=backfill,
        alloc_overhead_s=alloc_overhead_s,
        **service_kwargs,
    )
    return farm, farm.run()


def assert_no_overlap(farm):
    log = farm.allocation_log
    for i, (rid_a, (alo, ahi), a0, a1) in enumerate(log):
        for rid_b, (blo, bhi), b0, b1 in log[i + 1:]:
            if a0 < b1 and b0 < a1:  # concurrent in time
                assert ahi <= blo or bhi <= alo, (
                    f"{rid_a} and {rid_b} overlap in nodes while concurrent"
                )


def assert_reservations_respected(result):
    for rec in result.records:
        if rec.reserved_start is not None:
            assert rec.t_hold <= rec.reserved_start + 1e-9, (
                f"{rec.request.rid} started at {rec.t_hold} after its "
                f"reservation {rec.reserved_start}"
            )


def assert_spans_reconcile(result):
    spans = [s for s in result.trace.spans if s.cat == CAT_FARM]
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    n = len(result.records)
    assert len(by_name.get("queue", [])) == n
    assert len(by_name.get("serve", [])) == n
    assert len(by_name.get("alloc", [])) == result.rendered
    by_rid = {s.args["req"]: s for s in by_name["serve"]}
    for rec in result.records:
        span = by_rid[rec.request.rid]
        assert span.t0 == rec.t_serve and span.t1 == rec.t_done
    assert result.accounting_failures() == []


class TestSchedulerInvariants:
    session_lists = st.lists(
        st.builds(
            lambda i, kind, arrival, requests, cores, rate, think, steps: SessionSpec(
                name=f"s{i}",
                kind=kind,
                arrival=arrival,
                requests=requests,
                cores=cores,
                rate_hz=rate,
                think_s=think,
                steps=steps,
            ),
            st.integers(0, 10_000),
            st.sampled_from(("browse", "orbit", "multivar")),
            st.sampled_from(("open", "closed")),
            st.integers(min_value=1, max_value=12),
            st.sampled_from((64, 256, 1024, 2048)),
            st.floats(min_value=0.05, max_value=2.0),
            st.floats(min_value=0.0, max_value=3.0),
            st.integers(min_value=1, max_value=5),
        ),
        min_size=1,
        max_size=4,
        unique_by=lambda s: s.name,
    )

    @settings(max_examples=25, deadline=None)
    @given(sessions=session_lists, seed=st.integers(0, 2**16))
    def test_random_traffic_upholds_invariants(self, sessions, seed):
        farm, result = run_farm(sessions, seed=seed, alloc_overhead_s=0.25)
        assert len(result.records) == sum(s.requests for s in sessions)
        assert_no_overlap(farm)
        assert_reservations_respected(result)
        assert_spans_reconcile(result)
        for rec in result.records:
            assert rec.t_arrive <= rec.t_hold <= rec.t_serve <= rec.t_done

    def test_concurrent_jobs_share_disjoint_nodes(self):
        # Four closed sessions hammering a 512-node machine with
        # 128-node jobs: all four run concurrently, none overlap.
        sessions = [
            SessionSpec(name=f"s{i}", arrival="closed", requests=6,
                        cores=512, think_s=0.0, steps=6)
            for i in range(4)
        ]
        # coalesce=False: the four tenants ask for the same frame, and
        # this test pins *scheduler* concurrency, not deduplication.
        farm, result = run_farm(
            sessions, total_nodes=512, min_nodes=128, max_nodes=128,
            cache_entries=0, coalesce=False,
        )
        assert_no_overlap(farm)
        starts = [r.t_hold for r in result.records]
        # With think 0 and a machine holding all four tenants, the
        # first four jobs all start at t=0 — genuinely concurrent.
        assert sum(1 for s in starts if s == 0.0) == 4

    def test_backfill_fills_the_hole_without_delaying_head(self):
        # A: half the machine for 10 s.  B: the full machine — blocked
        # head with a reservation at A's release.  C: quarter machine
        # for 5 s — fits the hole and finishes before B's reservation.
        sessions = [
            SessionSpec(name="a", arrival="closed", requests=1, cores=2048),
            SessionSpec(name="b", arrival="closed", requests=1, cores=4096,
                        start_s=0.125),
            SessionSpec(name="c", arrival="closed", requests=1, cores=1024,
                        start_s=0.25),
        ]
        seconds = {"a": 10.0, "b": 10.0, "c": 5.0}
        farm, result = run_farm(
            sessions, seconds=seconds, total_nodes=1024,
            min_nodes=16, max_nodes=1024, cache_entries=0, coalesce=False,
        )
        recs = {r.request.session: r for r in result.records}
        assert result.backfilled == 1
        assert recs["c"].t_hold == 0.25  # backfilled immediately
        assert recs["b"].reserved_start == 10.0
        assert recs["b"].t_hold == 10.0  # exactly the reservation: no delay
        assert_no_overlap(farm)

    def test_too_long_candidate_is_not_backfilled(self):
        # Same shape, but C runs 20 s > B's reservation: must wait.
        sessions = [
            SessionSpec(name="a", arrival="closed", requests=1, cores=2048),
            SessionSpec(name="b", arrival="closed", requests=1, cores=4096,
                        start_s=0.125),
            SessionSpec(name="c", arrival="closed", requests=1, cores=1024,
                        start_s=0.25),
        ]
        seconds = {"a": 10.0, "b": 10.0, "c": 20.0}
        farm, result = run_farm(
            sessions, seconds=seconds, total_nodes=1024,
            min_nodes=16, max_nodes=1024, cache_entries=0, coalesce=False,
        )
        recs = {r.request.session: r for r in result.records}
        assert result.backfilled == 0
        assert recs["b"].t_hold == 10.0
        assert recs["c"].t_hold >= recs["b"].t_hold

    def test_no_backfill_means_strict_fcfs(self):
        sessions = [
            SessionSpec(name="a", arrival="closed", requests=1, cores=2048),
            SessionSpec(name="b", arrival="closed", requests=1, cores=4096,
                        start_s=0.125),
            SessionSpec(name="c", arrival="closed", requests=1, cores=1024,
                        start_s=0.25),
        ]
        seconds = {"a": 10.0, "b": 10.0, "c": 5.0}
        _, result = run_farm(
            sessions, seconds=seconds, total_nodes=1024,
            min_nodes=16, max_nodes=1024, cache_entries=0, backfill=False,
            coalesce=False,
        )
        recs = {r.request.session: r for r in result.records}
        assert recs["c"].t_hold >= recs["b"].t_hold  # arrival order held

    def test_backfill_never_hurts_makespan_here(self):
        # `big` holds half the machine; `huge` queues as a blocked head
        # wanting all of it; `small` jobs trickle through the hole.
        sessions = [
            SessionSpec(name="big", arrival="closed", requests=2, cores=2048,
                        steps=2),
            SessionSpec(name="huge", arrival="closed", requests=1, cores=4096,
                        start_s=0.125),
            SessionSpec(name="small", arrival="closed", requests=8, cores=512,
                        think_s=0.0, steps=8, start_s=0.25),
        ]
        seconds = {"big": 10.0, "huge": 10.0, "small": 2.0}
        kwargs = dict(seconds=seconds, total_nodes=1024, min_nodes=16,
                      max_nodes=1024, cache_entries=0, coalesce=False)
        _, with_bf = run_farm(sessions, **kwargs)
        _, without = run_farm(sessions, backfill=False, **kwargs)
        assert with_bf.backfilled > 0
        assert with_bf.makespan_s <= without.makespan_s


class TestResultCache:
    def test_warm_hit_is_zero_service_time(self):
        # One closed session re-requesting the same 2 frames: cycle 2+
        # hits the cache and completes instantly.
        sessions = [
            SessionSpec(name="s", arrival="closed", requests=6, steps=2,
                        cores=64, think_s=1.0),
        ]
        _, result = run_farm(sessions)
        hits = [r for r in result.records if r.cache_hit]
        assert len(hits) == 4
        for rec in hits:
            assert rec.serve_s == 0.0
            assert rec.latency_s == 0.0
            assert rec.nodes == 0  # never booted a partition

    def test_concurrent_duplicate_coalesces_onto_inflight_render(self):
        # Two sessions ask for the same frame at nearly the same time on
        # a machine that can only run one job: with single-flight on
        # (the default) the second request attaches to the in-flight
        # render and completes the moment it lands — same payload, zero
        # service time, no second render.
        sessions = [
            SessionSpec(name="a", arrival="closed", requests=1, cores=4096),
            SessionSpec(name="b", arrival="closed", requests=1, cores=4096,
                        start_s=0.125),
        ]
        _, result = run_farm(
            sessions, seconds=10.0, total_nodes=1024,
            min_nodes=1024, max_nodes=1024,
        )
        rec_a = next(r for r in result.records if r.request.session == "a")
        rec_b = next(r for r in result.records if r.request.session == "b")
        assert rec_b.coalesced and not rec_b.cache_hit
        assert rec_b.serve_s == 0.0
        assert rec_b.t_done == rec_a.t_done
        assert rec_b.payload is rec_a.payload  # identity, not a copy
        assert rec_b.queue_s == pytest.approx(10.0 - 0.125)
        assert result.rendered == 1 and result.promotions == 0

    def test_queued_duplicate_promotes_from_cache_without_coalescing(self):
        # Same traffic with single-flight off: the duplicate queues a
        # real job, then completes from the cache the first populated
        # while it waited — an in-queue *promotion*, counted at the
        # request level only (the recency refresh must not double-count
        # a lookup hit).
        sessions = [
            SessionSpec(name="a", arrival="closed", requests=1, cores=4096),
            SessionSpec(name="b", arrival="closed", requests=1, cores=4096,
                        start_s=0.125),
        ]
        _, result = run_farm(
            sessions, seconds=10.0, total_nodes=1024,
            min_nodes=1024, max_nodes=1024, coalesce=False,
        )
        rec_b = next(r for r in result.records if r.request.session == "b")
        assert rec_b.cache_hit and rec_b.promoted and not rec_b.coalesced
        assert rec_b.serve_s == 0.0
        assert rec_b.queue_s == pytest.approx(10.0 - 0.125)
        assert result.promotions == 1
        # The ledger identity the touch() fix exists for: the promotion
        # is not a counted lookup hit.
        assert result.result_cache_hits == result.cache_hits - result.promotions == 0
        assert result.accounting_failures() == []

    def test_cache_off_never_hits(self):
        sessions = [
            SessionSpec(name="s", arrival="closed", requests=6, steps=2,
                        cores=64, think_s=1.0),
        ]
        _, result = run_farm(sessions, cache_entries=0)
        assert result.cache_hits == 0
        assert result.cache_hit_rate == 0.0


class TestAccounting:
    def test_spans_reconcile_with_records(self):
        sessions = [
            SessionSpec(name="s", arrival="closed", requests=6, steps=3,
                        cores=64, think_s=0.5),
            SessionSpec(name="t", arrival="open", requests=5, rate_hz=1.0,
                        cores=256),
        ]
        _, result = run_farm(sessions, alloc_overhead_s=0.5)
        assert_spans_reconcile(result)

    def test_utilization_bounded_and_positive(self):
        sessions = [
            SessionSpec(name="s", arrival="closed", requests=4, cores=1024,
                        think_s=0.0, steps=4),
        ]
        _, result = run_farm(sessions, cache_entries=0)
        assert 0.0 < result.utilization <= 1.0

    def test_percentiles_are_ordered(self):
        sessions = [
            SessionSpec(name="s", arrival="open", requests=20, rate_hz=1.0,
                        cores=1024, steps=20),
        ]
        _, result = run_farm(sessions, total_nodes=256, cache_entries=0)
        assert result.p50_s <= result.p95_s <= result.p99_s

    def test_runs_are_deterministic(self):
        sessions = [
            SessionSpec(name="s", arrival="open", requests=15, rate_hz=0.8,
                        cores=512, steps=4),
            SessionSpec(name="t", arrival="closed", requests=10, think_s=1.0,
                        cores=1024, steps=5),
        ]
        _, a = run_farm(sessions, seed=42)
        _, b = run_farm(sessions, seed=42)
        assert a.summary() == b.summary()
        _, c = run_farm(sessions, seed=43)
        assert a.summary() != c.summary()

    def test_per_session_slo_override(self):
        sessions = [
            SessionSpec(name="strict", arrival="closed", requests=2,
                        cores=64, slo_s=0.001),
            SessionSpec(name="lax", arrival="closed", requests=2, cores=64),
        ]
        _, result = run_farm(sessions, seconds=5.0, cache_entries=0)
        per = result.summary()["per_session"]
        assert per["strict"]["slo_attainment"] == 0.0
        assert per["lax"]["slo_attainment"] == 1.0
        assert result.slo_attainment == 0.5

    def test_run_is_one_shot(self):
        farm, _ = run_farm([SessionSpec(name="s", requests=1, arrival="closed")])
        with pytest.raises(ConfigError, match="one-shot"):
            farm.run()

    def test_oversized_request_rejected(self):
        sessions = [SessionSpec(name="s", requests=1, arrival="closed",
                                cores=16384)]
        with pytest.raises(ConfigError, match="can provision at most"):
            run_farm(sessions, total_nodes=256, min_nodes=4096, max_nodes=4096)


class TestScenario:
    def test_json_round_trip(self, tmp_path):
        spec = {
            "seed": 3,
            "mode": "model",
            "total_nodes": 2048,
            "slo_s": 90.0,
            "size_policy": {"min_nodes": 256, "max_nodes": 1024},
            "sessions": [
                {"name": "b", "kind": "browse", "arrival": "open",
                 "requests": 4, "rate_hz": 0.5, "cores": 4096, "steps": 2},
            ],
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(spec))
        scenario = FarmScenario.from_file(str(path))
        assert scenario.total_nodes == 2048
        assert scenario.size_policy.max_nodes == 1024
        assert scenario.sessions[0].kind == "browse"
        result = scenario.run()
        assert len(result.records) == 4

    def test_unknown_scenario_key_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown key 'scenario\.typo'"):
            FarmScenario.from_dict({"sessions": [{"name": "x"}], "typo": 1})

    def test_unknown_session_key_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown key 'sessions\[0\]\.velocity'"):
            FarmScenario.from_dict({"sessions": [{"name": "x", "velocity": 9}]})

    def test_unknown_fault_key_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown key 'fault\.crash_rate'"):
            FarmScenario.from_dict(
                {"sessions": [{"name": "x"}], "fault": {"crash_rate": 1.0}}
            )

    def test_unknown_backend_option_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown key 'backend_options\.gird'"):
            FarmScenario.from_dict(
                {
                    "sessions": [{"name": "x"}],
                    "mode": "execute",
                    "backend_options": {"gird": 8},
                }
            )

    def test_missing_sessions_rejected(self):
        with pytest.raises(ConfigError, match="sessions"):
            FarmScenario.from_dict({"seed": 1})

    def test_compositor_backend_option_accepted(self):
        scenario = FarmScenario.from_dict(
            {
                "sessions": [{"name": "x", "requests": 2}],
                "mode": "execute",
                "backend_options": {
                    "grid": 12, "world_cores": 4, "image": 16,
                    "compositor": "puzzlepiece", "error_budget": 0.05,
                },
            }
        )
        backend = scenario.build().backend
        assert backend.compositor == "puzzlepiece"
        assert backend.error_budget == 0.05

    def test_unknown_compositor_rejected_at_spec_load(self):
        with pytest.raises(ConfigError, match="unknown compositor 'dbf'"):
            FarmScenario.from_dict(
                {
                    "sessions": [{"name": "x"}],
                    "mode": "execute",
                    "backend_options": {"compositor": "dbf"},
                }
            )

    def test_error_budget_on_exact_compositor_rejected(self):
        with pytest.raises(ConfigError, match="exact"):
            FarmScenario.from_dict(
                {
                    "sessions": [{"name": "x"}],
                    "mode": "execute",
                    "backend_options": {
                        "compositor": "directsend", "error_budget": 0.1,
                    },
                }
            )

    def test_error_budget_without_compositor_rejected(self):
        with pytest.raises(ConfigError, match="puzzlepiece"):
            FarmScenario.from_dict(
                {
                    "sessions": [{"name": "x"}],
                    "mode": "execute",
                    "backend_options": {"error_budget": 0.1},
                }
            )

    def test_negative_error_budget_rejected(self):
        with pytest.raises(ConfigError, match=">= 0"):
            FarmScenario.from_dict(
                {
                    "sessions": [{"name": "x"}],
                    "mode": "execute",
                    "backend_options": {
                        "compositor": "puzzlepiece", "error_budget": -0.1,
                    },
                }
            )

    def test_execute_scenario_runs_with_dfb(self):
        result = FarmScenario.from_dict(
            {
                "sessions": [{"name": "x", "requests": 3, "kind": "orbit"}],
                "mode": "execute",
                "backend_options": {
                    "grid": 12, "world_cores": 4, "image": 16,
                    "compositor": "dfb",
                },
            }
        ).run()
        assert len(result.records) == 3
        assert all(not r.rejected and r.t_done > 0 for r in result.records)

    def test_selftest_scenario_is_fast_and_clean(self):
        result = selftest_scenario().run()
        assert len(result.records) == 28
        assert result.cache_hits > 0
        assert_spans_reconcile(result)


class TestLifetime:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: dataclasses.replace(
                default_scenario(),
                fault=FarmFaults(crash_rate_per_node_hour=0.05, repair_s=30.0, max_crashes=200),
            ),
            flash_scenario,
        ],
        ids=["crashes", "autoscale"],
    )
    def test_finished_run_is_freed_without_the_cyclic_gc(self, make):
        """The node pool and the crash process point back at their farm
        without owning it: reference counting alone frees a finished
        run once its caller lets go."""
        scenario = make()
        gc.collect()
        gc.disable()
        try:
            farm = scenario.build()
            result = farm.run()
            assert result.faults is not None or result.autoscale["scale_events"] > 0
            ref = weakref.ref(farm)
            del farm, result
            assert ref() is None
        finally:
            gc.enable()
