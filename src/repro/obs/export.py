"""Trace exporters: Chrome ``trace_event`` JSON and paper-style text.

Two consumers, two formats:

* :func:`chrome_trace` / :func:`write_chrome_trace` — the Trace Event
  Format that chrome://tracing and Perfetto load.  Spans become ``"X"``
  (complete) events; the simulated clock (seconds) maps to the format's
  microseconds; ``pid`` is the frame index and ``tid`` the rank, so a
  campaign renders as one process row per frame with one thread lane
  per rank — the Gantt picture of the paper's Fig. 9.

* :func:`stage_report` — the Table II / Fig. 3 view: per-stage
  min/median/max across ranks with percent-of-frame, plus the
  per-rank stage table and message/byte counters.
"""

from __future__ import annotations

import json
from statistics import median

from repro.obs.tracer import STAGES, Tracer
from repro.utils.units import fmt_bytes, fmt_time


def chrome_trace(tracer: Tracer) -> dict:
    """The whole trace as a Trace Event Format object (all frames)."""
    events: list[dict] = []
    seen_lanes: set[tuple[int, int]] = set()
    seen_frames: set[int] = set()
    for s in tracer.spans:
        tid = s.rank if s.rank >= 0 else 999_999
        events.append(
            {
                "name": s.name,
                "cat": s.cat,
                "ph": "X",
                "ts": round(s.t0 * 1e6, 3),
                "dur": round(max(s.t1 - s.t0, 0.0) * 1e6, 3),
                "pid": s.frame,
                "tid": tid,
                "args": s.args or {},
            }
        )
        if s.frame not in seen_frames:
            seen_frames.add(s.frame)
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": s.frame,
                    "tid": 0,
                    "args": {"name": f"frame {s.frame}"},
                }
            )
        lane = (s.frame, tid)
        if lane not in seen_lanes:
            seen_lanes.add(lane)
            label = f"rank {s.rank}" if s.rank >= 0 else "global"
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": s.frame,
                    "tid": tid,
                    "args": {"name": label},
                }
            )
    counters = {k: tracer.counters[k] for k in sorted(tracer.counters)}
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": "simulated seconds (exported as us)",
            "counters": counters,
        },
    }


def write_chrome_trace(tracer: Tracer, path: str) -> None:
    """Write the Chrome trace JSON for chrome://tracing / Perfetto."""
    with open(path, "w") as fh:
        json.dump(chrome_trace(tracer), fh, indent=1)


def stage_report(tracer: Tracer, frame: int | None = None, per_rank: bool = True) -> str:
    """The paper-style per-stage, per-rank breakdown of one frame.

    Stage rows report min / median / max across ranks; the ``% frame``
    column uses the max-across-ranks convention (each stage's slowest
    rank over the sum of slowest ranks — the same accounting as
    :class:`repro.core.timing.FrameTiming`).
    """
    durations = tracer.stage_durations(frame)
    if not durations:
        return "(no stage spans recorded)"
    stages = [s for s in STAGES if s in durations] + sorted(
        s for s in durations if s not in STAGES
    )
    maxima = {s: max(durations[s].values()) for s in stages}
    frame_total = sum(maxima.values())
    nranks = max(len(v) for v in durations.values())

    lines = [
        f"per-stage breakdown, {nranks} ranks (simulated time)",
        f"{'stage':<12} {'min':>10} {'median':>10} {'max':>10} {'% frame':>8}",
    ]
    for s in stages:
        vals = sorted(durations[s].values())
        pct = 100.0 * maxima[s] / frame_total if frame_total else 0.0
        lines.append(
            f"{s:<12} {fmt_time(vals[0]):>10} {fmt_time(median(vals)):>10} "
            f"{fmt_time(vals[-1]):>10} {pct:>7.1f}%"
        )
    lines.append(f"{'frame':<12} {'':>10} {'':>10} {fmt_time(frame_total):>10} {100.0:>7.1f}%")

    msgs = tracer.counter("messages")
    nbytes = tracer.counter("bytes")
    if msgs:
        lines.append(
            f"traffic: {msgs} messages, {fmt_bytes(nbytes)} "
            f"(mean {fmt_bytes(nbytes / msgs)})"
        )
    if tracer.link_bytes:
        hot = max(tracer.link_bytes.items(), key=lambda kv: kv[1])
        lines.append(
            f"links: {len(tracer.link_bytes)} node pairs carried traffic, "
            f"hottest {hot[0][0]}->{hot[0][1]} at {fmt_bytes(hot[1])}"
        )

    if per_rank and nranks <= 64:
        lines.append("")
        lines.append(f"{'rank':<6}" + "".join(f"{s:>12}" for s in stages))
        ranks = sorted({r for v in durations.values() for r in v})
        for r in ranks:
            row = f"{r:<6}"
            for s in stages:
                d = durations[s].get(r)
                row += f"{fmt_time(d) if d is not None else '-':>12}"
            lines.append(row)
    return "\n".join(lines)
