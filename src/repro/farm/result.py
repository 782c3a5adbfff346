"""`FarmResult`: what one service scenario measured.

The service-level analog of :class:`repro.core.FrameResult`: per-request
ledger records plus the derived fleet metrics — latency percentiles
(p50/p95/p99), SLO attainment (overall and per session, honoring
per-session SLO overrides), machine utilization, throughput, and the
cache/edge/admission/autoscale tiers' statistics.  ``summary()`` is the
JSON the CLI emits; ``report()`` is the human table.

Accounting is *honest by construction* and checkable after the fact:
:meth:`FarmResult.accounting_failures` verifies every identity the
service tier promises —

* request conservation: every arrival is exactly one of served
  (``records``) or shed (``rejected``);
* ``cache_hits == result_lookup_hits + promotions`` (submit-time hits
  are counted lookups; in-queue promotions use the non-counting
  ``touch`` and are counted once, at the request level);
* a disabled result cache reports 0 hits / 0 misses;
* renders: ``served - cache_hits - edge_hits - coalesced`` equals the
  ``alloc`` span count (plus crash retries' ``killed`` spans);
* every served request has exactly one ``queue`` and one ``serve``
  span; edge hits, coalesced waiters, and rejections each have their
  zero-length marker span;
* a request served without a render consumed no service time, every
  served request carries a payload, and no first pixel is later than
  its frame.

``repro farm`` and ``tests/farm/test_edge.py`` run these on every
scenario they touch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.farm.backends import CampaignPayload, ProgressivePayload
from repro.farm.request import RequestRecord
from repro.farm.workload import SessionSpec
from repro.fault.metrics import FarmFaultStats
from repro.obs.tracer import Tracer
from repro.utils.units import fmt_time


@dataclass
class FarmResult:
    """All requests of one scenario plus service-wide accounting."""

    records: list[RequestRecord]
    sessions: tuple[SessionSpec, ...]
    slo_s: float
    makespan_s: float
    total_nodes: int
    util_node_seconds: float
    result_cache_hits: int
    result_cache_misses: int
    plan_hits: int
    plan_misses: int
    backfilled: int
    backend: str
    trace: Tracer | None = None
    faults: FarmFaultStats | None = None  # present only on fault-injected runs
    promotions: int = 0  # in-queue cache hits (frame cached while the job waited)
    coalesced_requests: int = 0  # duplicates attached to an in-flight render
    rejected: list[RequestRecord] = field(default_factory=list)  # shed, never served
    result_cache_enabled: bool = True
    provisioned_node_s: float | None = None  # ∫ provisioned-pool size dt
    cancelled_node_s: float = 0.0  # node-seconds reclaimed by camera moves
    levels_published: int = 0  # ladder levels delivered service-wide
    ladders_cancelled: int = 0  # ladders truncated by camera moves
    edge: dict | None = None  # EdgeCache.summary() when the edge tier ran
    admission: dict | None = None  # TokenBucketAdmission.summary()
    autoscale: dict | None = None  # policy name, scale events, pool extremes

    # -- latency ------------------------------------------------------

    def latencies(self) -> np.ndarray:
        return np.array([r.latency_s for r in self.records], dtype=np.float64)

    def latency_percentile(self, pct: float) -> float:
        lat = self.latencies()
        return float(np.percentile(lat, pct)) if lat.size else 0.0

    @property
    def p50_s(self) -> float:
        return self.latency_percentile(50)

    @property
    def p95_s(self) -> float:
        return self.latency_percentile(95)

    @property
    def p99_s(self) -> float:
        return self.latency_percentile(99)

    @property
    def mean_queue_s(self) -> float:
        return float(np.mean([r.queue_s for r in self.records])) if self.records else 0.0

    # -- SLO ----------------------------------------------------------

    def slo_for(self, session: str) -> float:
        for spec in self.sessions:
            if spec.name == session:
                return self.slo_s if spec.slo_s is None else spec.slo_s
        return self.slo_s

    @property
    def slo_attainment(self) -> float:
        """Fraction of requests delivered within their session's SLO."""
        if not self.records:
            return 1.0
        met = sum(r.meets(self.slo_for(r.request.session)) for r in self.records)
        return met / len(self.records)

    # -- machine & caches ---------------------------------------------

    @property
    def utilization(self) -> float:
        """Allocated node-seconds over the machine's whole-run capacity."""
        denom = self.total_nodes * self.makespan_s
        return self.util_node_seconds / denom if denom else 0.0

    @property
    def cache_hits(self) -> int:
        """Requests answered from the result cache (request-level)."""
        return sum(r.cache_hit for r in self.records)

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / len(self.records) if self.records else 0.0

    @property
    def edge_hits(self) -> int:
        """Requests served from a regional edge cache."""
        return sum(r.edge_hit for r in self.records)

    @property
    def coalesced(self) -> int:
        """Requests that attached to an identical in-flight render."""
        return sum(r.coalesced for r in self.records)

    @property
    def rendered(self) -> int:
        """Requests that actually cost a render and a partition."""
        return sum(r.rendered for r in self.records)

    @property
    def arrivals(self) -> int:
        """Everything that knocked: served plus shed."""
        return len(self.records) + len(self.rejected)

    @property
    def shed_rate(self) -> float:
        return len(self.rejected) / self.arrivals if self.arrivals else 0.0

    @property
    def held_node_s(self) -> float:
        """Node-seconds provisioned (the whole machine with no pool policy)."""
        if self.provisioned_node_s is None:
            return self.total_nodes * self.makespan_s
        return self.provisioned_node_s

    @property
    def node_hours(self) -> float:
        """Node-hours actually provisioned (the bill, not the machine)."""
        return self.held_node_s / 3600.0

    @property
    def throughput_rps(self) -> float:
        return len(self.records) / self.makespan_s if self.makespan_s else 0.0

    # -- campaigns ----------------------------------------------------

    def campaign_records(self) -> list[RequestRecord]:
        """Served campaign jobs (one record = one whole animation)."""
        return [r for r in self.records if r.request.is_campaign]

    @property
    def campaigns(self) -> int:
        return len(self.campaign_records())

    @property
    def campaign_frames(self) -> int:
        """Frames delivered inside campaign jobs (requests expanded)."""
        return sum(r.request.frames for r in self.campaign_records())

    @property
    def frames_delivered(self) -> int:
        """All frames the served requests carried (campaigns expanded)."""
        return sum(r.request.frames for r in self.records)

    def campaign_stats(self) -> dict | None:
        """Per-campaign frame-throughput and overlap accounting.

        ``None`` when the workload had no campaign sessions.  Throughput
        is frames over the job's *service* span (the pipelined
        makespan), so it reads directly as animation frame rate; cache/
        edge/coalesced campaigns have no service span and are counted
        but excluded from throughput.
        """
        recs = self.campaign_records()
        if not recs:
            return None
        served = [r for r in recs if r.serve_s > 0]
        fps = [r.request.frames / r.serve_s for r in served]
        saved = 0.0
        depths = set()
        for r in recs:
            p = r.payload
            if isinstance(p, CampaignPayload):
                saved += float(p.overlap_saved_s)
                depths.add(int(p.prefetch_depth))
        return {
            "campaigns": len(recs),
            "frames": self.campaign_frames,
            "rendered": len(served),
            "prefetch_depths": sorted(depths),
            "frames_per_s": {
                "mean": float(np.mean(fps)) if fps else 0.0,
                "min": float(np.min(fps)) if fps else 0.0,
                "max": float(np.max(fps)) if fps else 0.0,
            },
            "overlap_saved_s": saved,
        }

    # -- progressive ladders ------------------------------------------

    def progressive_records(self) -> list[RequestRecord]:
        """Served progressive-ladder jobs (one record = one ladder)."""
        return [r for r in self.records if r.request.is_progressive]

    def _rendered_ladders(self) -> list[RequestRecord]:
        """Ladders that ran on the machine, so carry their own render clock."""
        return [r for r in self.progressive_records() if r.rendered and r.payload is not None]

    def progressive_stats(self) -> dict | None:
        """TTFP and cancellation accounting for the interactive tier.

        ``None`` when the workload had no interactive sessions.  The
        headline is ``ttfp_speedup``: how much sooner the first pixel
        lands than a direct full-resolution render of the same frame
        would have delivered *anything* (both from the same payload's
        clock, so the ratio is scale-honest).  Cache/edge-served
        ladders have no render clock and are excluded from it.
        """
        recs = self.progressive_records()
        if not recs:
            return None
        rendered = self._rendered_ladders()
        ttfps = np.array([r.ttfp_s for r in recs], dtype=np.float64)
        payload_ttfp = [float(r.payload.ttfp_s) for r in rendered]
        payload_full = [float(r.payload.sequential_full_s) for r in rendered]
        speedup = (
            float(np.mean(payload_full) / np.mean(payload_ttfp)) if rendered else 0.0
        )
        return {
            "ladders": len(recs),
            "rendered": len(rendered),
            "coarse_hits": sum(r.coarse_hit for r in recs),
            "cancelled": sum(r.ladder_cancelled for r in recs),
            "levels_published": self.levels_published,
            "cancelled_node_s": self.cancelled_node_s,
            "ttfp_s": {
                "mean": float(np.mean(ttfps)),
                "p95": float(np.percentile(ttfps, 95)),
            },
            "full_latency_s": {
                "mean": float(np.mean([r.latency_s for r in recs])),
            },
            "ttfp_speedup": speedup,
        }

    # -- views --------------------------------------------------------

    def session_records(self, session: str) -> list[RequestRecord]:
        return [r for r in self.records if r.request.session == session]

    def summary(self) -> dict:
        """JSON-able scenario summary (what ``repro farm --json`` prints)."""
        lat = self.latencies()
        per_session = {}
        for spec in self.sessions:
            recs = self.session_records(spec.name)
            slo = self.slo_for(spec.name)
            ses_lat = np.array([r.latency_s for r in recs]) if recs else np.zeros(0)
            per_session[spec.name] = {
                "kind": spec.kind,
                "arrival": spec.arrival,
                "requests": len(recs),
                "p50_s": float(np.percentile(ses_lat, 50)) if ses_lat.size else 0.0,
                "p95_s": float(np.percentile(ses_lat, 95)) if ses_lat.size else 0.0,
                "slo_s": slo,
                "slo_attainment": (
                    sum(r.meets(slo) for r in recs) / len(recs) if recs else 1.0
                ),
                "cache_hits": sum(r.cache_hit for r in recs),
            }
        fault_section = (
            {"faults": self.faults.summary()} if self.faults is not None else {}
        )
        tiers = {  # each section appears only when its tier ran
            "campaigns": self.campaign_stats(),
            "progressive": self.progressive_stats(),
            "edge": self.edge,
            "admission": self.admission,
            "autoscale": self.autoscale,
        }
        extra = {name: section for name, section in tiers.items() if section is not None}
        if "admission" in extra:
            extra["admission"] = {**self.admission, "shed_rate": self.shed_rate}
        return {
            "backend": self.backend,
            "requests": len(self.records),
            "arrivals": self.arrivals,
            "rejected": len(self.rejected),
            **fault_section,
            "sessions": len(self.sessions),
            "makespan_s": self.makespan_s,
            "throughput_rps": self.throughput_rps,
            "latency_s": {
                "p50": self.p50_s,
                "p95": self.p95_s,
                "p99": self.p99_s,
                "mean": float(np.mean(lat)) if lat.size else 0.0,
                "max": float(np.max(lat)) if lat.size else 0.0,
            },
            "mean_queue_s": self.mean_queue_s,
            "slo": {"target_s": self.slo_s, "attainment": self.slo_attainment},
            "machine": {
                "total_nodes": self.total_nodes,
                "utilization": self.utilization,
                "backfilled": self.backfilled,
                "provisioned_node_s": self.held_node_s,
                "node_hours": self.node_hours,
            },
            "service": {
                "rendered": self.rendered,
                "coalesced": self.coalesced,
                "edge_hits": self.edge_hits,
                "cache_hits": self.cache_hits,
                "promotions": self.promotions,
            },
            "cache": {
                "enabled": self.result_cache_enabled,
                "result_hits": self.cache_hits,
                "result_hit_rate": self.cache_hit_rate,
                "result_lookup_hits": self.result_cache_hits,
                "result_lookup_misses": self.result_cache_misses,
                "promotions": self.promotions,
                "plan_hits": self.plan_hits,
                "plan_misses": self.plan_misses,
            },
            **extra,
            "per_session": per_session,
        }

    # -- accounting identities ----------------------------------------

    def accounting_failures(self) -> list[str]:
        """Every violated service-tier identity, as human-readable strings.

        Empty means the books balance.  The selftests assert exactly
        that; tests use the strings as failure messages.
        """
        fails = []
        served = len(self.records)
        submit_hits = self.cache_hits - self.promotions

        if self.coalesced != self.coalesced_requests:
            fails.append(
                f"coalesced records {self.coalesced} != coalesced counter "
                f"{self.coalesced_requests}"
            )
        if any(not r.rejected for r in self.rejected):
            fails.append("rejected list holds a record not flagged rejected")
        one_ending = self.rendered + self.cache_hits + self.edge_hits + self.coalesced
        if any(r.rejected for r in self.records) or one_ending != served:
            fails.append("served records must not be rejected or double-flagged")
        if any(r.t_done < r.t_arrive for r in self.records):
            fails.append("a request completed before it arrived")
        if not 0.0 <= self.utilization <= 1.0 + 1e-9:
            fails.append(f"utilization {self.utilization} outside [0, 1]")
        if any(not r.rendered and r.serve_s != 0.0 for r in self.records):
            fails.append("a cache hit, edge hit or coalesced request consumed service time")
        if any(r.payload is None for r in self.records):
            fails.append("a served request carries no payload")
        if any(r.ttfp_s > r.latency_s + 1e-9 for r in self.records):
            fails.append("time to first pixel exceeded end-to-end latency")

        if self.result_cache_enabled:
            if self.result_cache_hits != submit_hits:
                fails.append(
                    f"lookup hits {self.result_cache_hits} != submit-time hits "
                    f"{submit_hits} (cache_hits {self.cache_hits} - promotions "
                    f"{self.promotions})"
                )
            expected_misses = self.arrivals - self.edge_hits - submit_hits
            if self.result_cache_misses != expected_misses:
                fails.append(
                    f"lookup misses {self.result_cache_misses} != arrivals "
                    f"{self.arrivals} - edge hits {self.edge_hits} - submit-time "
                    f"hits {submit_hits} = {expected_misses}"
                )
        else:
            if self.result_cache_hits or self.result_cache_misses:
                fails.append(
                    f"disabled cache reported {self.result_cache_hits} hits / "
                    f"{self.result_cache_misses} misses (must be 0/0)"
                )
            if self.cache_hits:
                fails.append(f"disabled cache served {self.cache_hits} hits")

        if self.edge is not None and self.edge["hits"] != self.edge_hits:
            fails.append(
                f"edge cache hits {self.edge['hits']} != edge-hit records "
                f"{self.edge_hits}"
            )
        if self.admission is not None and self.admission["rejected"] != len(self.rejected):
            fails.append(
                f"admission rejected {self.admission['rejected']} != rejected "
                f"records {len(self.rejected)}"
            )

        for r in self.campaign_records():
            p = r.payload
            if p is None:
                continue  # shed before service; nothing was promised
            if not isinstance(p, CampaignPayload):
                fails.append(
                    f"campaign {r.request.rid} delivered a non-campaign "
                    f"payload {type(p).__name__}"
                )
                continue
            if int(p.frames) != int(r.request.frames):
                fails.append(
                    f"campaign {r.request.rid} asked for {r.request.frames} "
                    f"frames, payload carries {p.frames}"
                )
            if p.overlap_saved_s < -1e-9:
                fails.append(
                    f"campaign {r.request.rid} pipelined makespan "
                    f"{p.makespan_s:.6f}s exceeds its sequential time "
                    f"{p.sequential_s:.6f}s"
                )

        eps = 1e-6
        for r in self.progressive_records():
            p = r.payload
            rid = r.request.rid
            if r.t_first_pixel is not None and not (
                r.t_arrive - eps <= r.t_first_pixel <= r.t_done + eps
            ):
                fails.append(
                    f"ladder {rid} first pixel at {r.t_first_pixel:.6f} outside "
                    f"[{r.t_arrive:.6f}, {r.t_done:.6f}]"
                )
            if p is None or not r.rendered:
                continue  # served without a render; no ladder clock to check
            if not isinstance(p, ProgressivePayload):
                fails.append(
                    f"ladder {rid} delivered a non-progressive payload "
                    f"{type(p).__name__}"
                )
                continue
            if r.t_first_pixel is None:
                fails.append(f"rendered ladder {rid} recorded no first-pixel time")
            if int(p.levels) != int(r.request.levels):
                fails.append(
                    f"ladder {rid} asked for {r.request.levels} levels, "
                    f"payload carries {p.levels}"
                )
            if any(b <= a for a, b in zip(p.level_end_s, p.level_end_s[1:])):
                fails.append(f"ladder {rid} level clock is not strictly increasing")
            if p.ttfp_s > p.total_s + eps:
                fails.append(
                    f"ladder {rid} TTFP {p.ttfp_s:.6f}s exceeds its total "
                    f"{p.total_s:.6f}s"
                )
            if self.faults is None:
                if r.ladder_cancelled and r.levels_done >= r.levels_total:
                    fails.append(
                        f"cancelled ladder {rid} delivered all {r.levels_total} levels"
                    )
                if not r.ladder_cancelled and r.levels_done != r.levels_total:
                    fails.append(
                        f"ladder {rid} delivered {r.levels_done} of "
                        f"{r.levels_total} levels without a camera move"
                    )
        if self.faults is None:
            prog_rendered = self._rendered_ladders()
            want_levels = sum(r.levels_done for r in prog_rendered)
            if self.levels_published != want_levels:
                fails.append(
                    f"levels_published {self.levels_published} != levels delivered "
                    f"by rendered ladders {want_levels}"
                )
            want_cancels = sum(r.ladder_cancelled for r in prog_rendered)
            if self.ladders_cancelled != want_cancels:
                fails.append(
                    f"ladders_cancelled {self.ladders_cancelled} != cancelled "
                    f"records {want_cancels}"
                )
            want_reclaimed = sum(
                r.nodes * (float(r.payload.total_s) - r.serve_s)
                for r in prog_rendered
                if r.ladder_cancelled
            )
            if abs(self.cancelled_node_s - want_reclaimed) > 1e-6:
                fails.append(
                    f"cancelled_node_s {self.cancelled_node_s:.6f} != "
                    f"sum of truncated remainders {want_reclaimed:.6f}"
                )

        if self.trace is not None and self.trace.enabled:
            names: dict[str, int] = {}
            for span in self.trace.spans:
                names[span.name] = names.get(span.name, 0) + 1
            retries = sum(r.retries for r in self.records)
            checks = [
                ("queue", served),
                ("serve", served),
                ("alloc", self.rendered),  # one per finished render
                ("killed", retries),  # crash retries re-finish, no extra alloc span
                ("edge-hit", self.edge_hits),
                ("coalesced", self.coalesced),
                ("reject", len(self.rejected)),
                # Ladder spans are emitted by the same code paths that
                # bump the counters, so these reconcile even under
                # faults (killed ladders' published spans stay, and so
                # does their count).
                ("level", self.levels_published),
                ("ladder-cancelled", self.ladders_cancelled),
            ]
            for name, want in checks:
                got = names.get(name, 0)
                if got != want:
                    fails.append(f"{got} {name!r} spans, expected {want}")
        return fails

    def report(self) -> str:
        """Human-readable scenario report (what ``repro farm`` prints)."""
        lines = [
            f"farm scenario: {len(self.records)} requests from "
            f"{len(self.sessions)} sessions ({self.backend} backend), "
            f"{self.total_nodes}-node machine",
            f"  makespan     {fmt_time(self.makespan_s):>10}   "
            f"throughput {self.throughput_rps:.3f} req/s",
            f"  latency      p50 {fmt_time(self.p50_s)}, p95 {fmt_time(self.p95_s)}, "
            f"p99 {fmt_time(self.p99_s)} (mean queue {fmt_time(self.mean_queue_s)})",
            f"  SLO          {100.0 * self.slo_attainment:.1f}% within "
            f"{fmt_time(self.slo_s)}",
            f"  utilization  {100.0 * self.utilization:.1f}% of node-seconds, "
            f"{self.backfilled} jobs backfilled, {self.node_hours:.1f} node-hours held",
            f"  service      {self.rendered} rendered, {self.coalesced} coalesced, "
            f"{self.edge_hits} edge hits, {self.cache_hits} cache hits "
            f"({self.promotions} promoted in queue)",
            f"  caches       result {self.cache_hits}/{len(self.records)} hits "
            f"({100.0 * self.cache_hit_rate:.1f}%), plan {self.plan_hits} hits / "
            f"{self.plan_misses} misses",
        ]
        campaigns = self.campaign_stats()
        if campaigns is not None:
            lines.append(
                f"  campaigns    {campaigns['campaigns']} jobs / "
                f"{campaigns['frames']} frames, "
                f"{campaigns['frames_per_s']['mean']:.3f} frames/s mean, "
                f"overlap saved {fmt_time(campaigns['overlap_saved_s'])}"
            )
        progressive = self.progressive_stats()
        if progressive is not None:
            lines.append(
                f"  progressive  {progressive['ladders']} ladders "
                f"({progressive['levels_published']} levels), TTFP mean "
                f"{fmt_time(progressive['ttfp_s']['mean'])} "
                f"({progressive['ttfp_speedup']:.1f}x vs full-res), "
                f"{progressive['cancelled']} cancelled reclaiming "
                f"{progressive['cancelled_node_s']:.0f} node-s, "
                f"{progressive['coarse_hits']} coarse hits"
            )
        if self.edge is not None:
            lines.append(
                f"  edge         {self.edge['hits']} hits / {self.edge['misses']} "
                f"misses across {len(self.edge['per_region'])} regions, "
                f"{self.edge['expired']} expired, {self.edge['invalidated']} invalidated"
            )
        if self.admission is not None:
            lines.append(
                f"  admission    {self.admission['admitted']} admitted, "
                f"{len(self.rejected)} shed ({100.0 * self.shed_rate:.1f}% of "
                f"{self.arrivals} arrivals)"
            )
        if self.autoscale is not None:
            a = self.autoscale
            lines.append(
                f"  autoscale    {a['policy']}: {a['scale_events']} resizes, pool "
                f"{a['min_provisioned']}-{a['max_provisioned']} nodes"
            )
        if self.faults is not None:
            f = self.faults
            lines.append(
                f"  faults       {f.crashes} crashes, {f.jobs_killed} jobs killed "
                f"({f.retries} requeues), availability "
                f"{100.0 * f.availability:.2f}%, goodput {100.0 * f.goodput:.2f}%, "
                f"MTTR {fmt_time(f.mttr_s)}"
            )
        lines += [
            "",
            f"  {'session':<12} {'kind':<9} {'req':>5} {'p50':>10} {'p95':>10} "
            f"{'SLO%':>7} {'hits':>5}",
        ]
        per_session = self.summary()["per_session"]
        for spec in self.sessions:
            s = per_session[spec.name]
            lines.append(
                f"  {spec.name:<12} {spec.kind:<9} {s['requests']:>5} "
                f"{fmt_time(s['p50_s']):>10} {fmt_time(s['p95_s']):>10} "
                f"{100.0 * s['slo_attainment']:>6.1f}% {s['cache_hits']:>5}"
            )
        return "\n".join(lines)
