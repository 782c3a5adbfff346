"""`FarmResult`: what one service scenario measured.

The service-level analog of :class:`repro.core.FrameResult`: per-request
ledger records plus the derived fleet metrics — latency percentiles
(p50/p95/p99), SLO attainment (overall and per session, honoring
per-session SLO overrides), machine utilization, throughput, and the
cache/edge/admission/autoscale tiers' statistics.  ``summary()`` is the
JSON the CLI emits, its optional sections built from one table;
``report()`` is the human table, rendered from one ``summary()``.

Accounting is *honest by construction* and checkable after the fact:
:meth:`FarmResult.accounting_failures` states every identity the
service tier promises as :mod:`repro.obs.books` rows and span counts —

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
  its frame;
* campaign and ladder payloads match their requests, and the ladder
  counters match the ladder records.

``repro farm`` runs these on every scenario; ``tests/obs/test_identities.py``
breaks each one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.farm.backends import CampaignPayload, ProgressivePayload
from repro.farm.request import RequestRecord
from repro.farm.workload import SessionSpec
from repro.fault.metrics import FarmFaultStats
from repro.obs.books import row_failures, span_count_failures
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
    provisioned_node_s: float = 0.0  # ∫ provisioned-pool size dt (NodePool.close)
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
    def node_hours(self) -> float:
        """Node-hours actually provisioned (the bill, not the machine)."""
        return self.provisioned_node_s / 3600.0

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

    def summary(self) -> dict:
        """JSON-able scenario summary (what ``repro farm --json`` prints)."""
        lat = self.latencies()
        per_session = {}
        for spec in self.sessions:
            recs = [r for r in self.records if r.request.session == spec.name]
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
        sections = {  # each optional section appears only when its tier ran
            "faults": None if self.faults is None else self.faults.summary(),
            "campaigns": self.campaign_stats(),
            "progressive": self.progressive_stats(),
            "edge": self.edge,
            "admission": (
                None if self.admission is None else {**self.admission, "shed_rate": self.shed_rate}
            ),
            "autoscale": self.autoscale,
        }
        ran = {name: section for name, section in sections.items() if section is not None}
        faults = {"faults": ran.pop("faults")} if "faults" in ran else {}
        return {
            "backend": self.backend,
            "requests": len(self.records),
            "arrivals": self.arrivals,
            "rejected": len(self.rejected),
            **faults,
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
                "provisioned_node_s": self.provisioned_node_s,
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
            **ran,
            "per_session": per_session,
        }

    # -- accounting identities ----------------------------------------

    def accounting_failures(self) -> list[str]:
        """Every violated service-tier identity, as human-readable strings.

        Empty means the books balance.  Each identity is a
        :mod:`repro.obs.books` row or span count.
        """
        recs, served, enabled = self.records, len(self.records), self.result_cache_enabled
        util, shed = self.utilization, len(self.rejected)
        endings = self.rendered + self.cache_hits + self.edge_hits + self.coalesced
        submit_hits = self.cache_hits - self.promotions
        lookups = (self.result_cache_hits, self.result_cache_misses)
        want = (submit_hits, self.arrivals - self.edge_hits - submit_hits) if enabled else (0, 0)
        rows = [
            ("coalesced records vs counter", self.coalesced, self.coalesced_requests),
            ("shed records not flagged rejected", sum(not r.rejected for r in self.rejected), 0),
            ("served records flagged rejected", sum(r.rejected for r in recs), 0),
            ("served records, one ending each", endings, served),
            ("records done before arrival", sum(r.t_done < r.t_arrive for r in recs), 0),
            (f"utilization {util} in [0, 1]", 0 <= util <= 1 + 1e-9, True),
            ("unrendered but serviced", sum(r.serve_s != 0 for r in recs if not r.rendered), 0),
            ("records without a payload", sum(r.payload is None for r in recs), 0),
            ("first pixel after the frame", sum(r.ttfp_s > r.latency_s + 1e-9 for r in recs), 0),
            ("result-cache lookups (hits, misses)", lookups, want),
            ("hits from a disabled result cache", 0 if enabled else self.cache_hits, 0),
        ]
        if self.edge is not None:
            rows.append(("edge cache hits vs records", self.edge["hits"], self.edge_hits))
        if self.admission is not None:
            rows.append(("admission rejections vs records", self.admission["rejected"], shed))

        for r in self.campaign_records():
            p, rid = r.payload, r.request.rid
            if p is None:
                continue  # shed before service; nothing was promised
            if not isinstance(p, CampaignPayload):
                rows.append((f"campaign {rid} payload", type(p).__name__, "CampaignPayload"))
                continue
            rows += [
                (f"campaign {rid} frames", int(p.frames), int(r.request.frames)),
                (f"campaign {rid} makespan within sequential", p.overlap_saved_s >= -1e-9, True),
            ]

        eps = 1e-6
        for r in self.progressive_records():
            p, rid, first = r.payload, r.request.rid, r.t_first_pixel
            if first is not None:
                inside = r.t_arrive - eps <= first <= r.t_done + eps
                rows.append((f"ladder {rid} first pixel in [arrival, done]", inside, True))
            if p is None or not r.rendered:
                continue  # served without a render; no ladder clock to check
            if not isinstance(p, ProgressivePayload):
                rows.append((f"ladder {rid} payload", type(p).__name__, "ProgressivePayload"))
                continue
            clock = p.level_end_s
            rows += [
                (f"rendered ladder {rid} recorded a first pixel", first is not None, True),
                (f"ladder {rid} levels", int(p.levels), int(r.request.levels)),
                (f"ladder {rid} clock rising", all(a < b for a, b in zip(clock, clock[1:])), True),
                (f"ladder {rid} TTFP within total", p.ttfp_s <= p.total_s + eps, True),
            ]
            if self.faults is None:
                rows.append(
                    (f"cancelled ladder {rid} cut short", r.levels_done < r.levels_total, True)
                    if r.ladder_cancelled
                    else (f"ladder {rid} levels delivered", r.levels_done, r.levels_total)
                )
        if self.faults is None:
            ladders = self._rendered_ladders()
            cut = [r for r in ladders if r.ladder_cancelled]
            reclaimed = sum(r.nodes * (float(r.payload.total_s) - r.serve_s) for r in cut)
            rows += [
                ("levels published vs delivered", self.levels_published,
                 sum(r.levels_done for r in ladders)),
                ("ladders cancelled vs records", self.ladders_cancelled, len(cut)),
                ("cancelled node-s vs cut remainders", self.cancelled_node_s, reclaimed, 1e-6),
            ]

        spans = {
            "queue": served,
            "serve": served,
            "alloc": self.rendered,  # one per finished render; crash retries
            "killed": sum(r.retries for r in recs),  # re-finish, no extra alloc span
            "edge-hit": self.edge_hits,
            "coalesced": self.coalesced,
            "reject": shed,
            # Ladder spans are emitted by the same code paths that bump
            # the counters, so these reconcile even under faults (killed
            # ladders' published spans stay, and so does their count).
            "level": self.levels_published,
            "ladder-cancelled": self.ladders_cancelled,
        }
        return row_failures(rows) + span_count_failures(self.trace, spans)

    def report(self) -> str:
        """Human-readable scenario report (what ``repro farm`` prints):
        a rendering of one :meth:`summary`, so the two cannot disagree."""
        s = self.summary()
        lat, m, svc, cache = s["latency_s"], s["machine"], s["service"], s["cache"]
        lines = [
            f"farm scenario: {s['requests']} requests from {s['sessions']} sessions "
            f"({s['backend']} backend), {m['total_nodes']}-node machine",
            f"  makespan     {fmt_time(s['makespan_s']):>10}   "
            f"throughput {s['throughput_rps']:.3f} req/s",
            f"  latency      p50 {fmt_time(lat['p50'])}, p95 {fmt_time(lat['p95'])}, "
            f"p99 {fmt_time(lat['p99'])} (mean queue {fmt_time(s['mean_queue_s'])})",
            f"  SLO          {100.0 * s['slo']['attainment']:.1f}% within "
            f"{fmt_time(s['slo']['target_s'])}",
            f"  utilization  {100.0 * m['utilization']:.1f}% of node-seconds, "
            f"{m['backfilled']} jobs backfilled, {m['node_hours']:.1f} node-hours held",
            f"  service      {svc['rendered']} rendered, {svc['coalesced']} coalesced, "
            f"{svc['edge_hits']} edge hits, {svc['cache_hits']} cache hits "
            f"({svc['promotions']} promoted in queue)",
            f"  caches       result {cache['result_hits']}/{s['requests']} hits "
            f"({100.0 * cache['result_hit_rate']:.1f}%), plan {cache['plan_hits']} hits / "
            f"{cache['plan_misses']} misses",
        ]
        lines += [line(s[name], s) for name, line in _SECTION_LINES.items() if name in s]
        lines += [
            "",
            f"  {'session':<12} {'kind':<9} {'req':>5} {'p50':>10} {'p95':>10} "
            f"{'SLO%':>7} {'hits':>5}",
        ]
        for name, ses in s["per_session"].items():
            lines.append(
                f"  {name:<12} {ses['kind']:<9} {ses['requests']:>5} "
                f"{fmt_time(ses['p50_s']):>10} {fmt_time(ses['p95_s']):>10} "
                f"{100.0 * ses['slo_attainment']:>6.1f}% {ses['cache_hits']:>5}"
            )
        return "\n".join(lines)


#: The report line of each optional summary section, in report order:
#: ``line(section, summary)``.
_SECTION_LINES = {
    "campaigns": lambda c, s: (
        f"  campaigns    {c['campaigns']} jobs / {c['frames']} frames, "
        f"{c['frames_per_s']['mean']:.3f} frames/s mean, "
        f"overlap saved {fmt_time(c['overlap_saved_s'])}"
    ),
    "progressive": lambda p, s: (
        f"  progressive  {p['ladders']} ladders ({p['levels_published']} levels), "
        f"TTFP mean {fmt_time(p['ttfp_s']['mean'])} "
        f"({p['ttfp_speedup']:.1f}x vs full-res), {p['cancelled']} cancelled "
        f"reclaiming {p['cancelled_node_s']:.0f} node-s, {p['coarse_hits']} coarse hits"
    ),
    "edge": lambda e, s: (
        f"  edge         {e['hits']} hits / {e['misses']} misses across "
        f"{len(e['per_region'])} regions, {e['expired']} expired, "
        f"{e['invalidated']} invalidated"
    ),
    "admission": lambda a, s: (
        f"  admission    {a['admitted']} admitted, {s['rejected']} shed "
        f"({100.0 * a['shed_rate']:.1f}% of {s['arrivals']} arrivals)"
    ),
    "autoscale": lambda a, s: (
        f"  autoscale    {a['policy']}: {a['scale_events']} resizes, pool "
        f"{a['min_provisioned']}-{a['max_provisioned']} nodes"
    ),
    "faults": lambda f, s: (
        f"  faults       {f['crashes']} crashes, {f['jobs_killed']} jobs killed "
        f"({f['retries']} requeues), availability {100.0 * f['availability']:.2f}%, "
        f"goodput {100.0 * f['goodput']:.2f}%, MTTR {fmt_time(f['mttr_s'])}"
    ),
}
