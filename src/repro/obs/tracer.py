"""Simulated-time tracing: spans and counters for the frame pipeline.

The paper is an *end-to-end timing study*: its figures are per-stage
breakdowns across ranks (Fig. 3, Table II), Gantt-style activity plots
(Fig. 9), and compositing message statistics.  :class:`Tracer` records
the raw material for all of them — **spans** (rank, name, category,
start/end in engine time) and **counters** (messages, bytes, per-link
traffic) — while one SPMD frame runs.

Clock semantics: all times are *simulated* seconds from the discrete
event engine (:class:`repro.sim.engine.Engine`), not wall time.  Each
:meth:`MPIWorld.run <repro.vmpi.runner.MPIWorld.run>` starts a fresh
engine at t=0, so spans from different frames overlap in time; the
``frame`` field (bumped by :meth:`Tracer.begin_frame`) keeps them
apart, and the Chrome exporter maps it to the trace ``pid``.

Overhead discipline: every detail-recording method is a no-op behind a
single ``enabled`` test, so instrumented hot paths (one branch per
message send) cost nearly nothing when tracing is off.  The exception
is :meth:`stage`, which records unconditionally: the three stage spans
per rank per frame are the source of truth :class:`FrameTiming
<repro.core.timing.FrameTiming>` is derived from, and three small
allocations per rank per frame are negligible next to rendering.

Storage: a farm run or a paper-scale trace holds one :class:`Span` per
request phase or per message, so a span is a frozen *slotted*
dataclass (no instance dict) and keeps its keyword arguments as one
flat ``(key, value, key, value, ...)`` tuple in call order.  The
read-only :attr:`Span.args` property rebuilds the dict (``None`` for a
span recorded without arguments), so readers see exactly what was
passed to :meth:`Tracer.span`.  ``Span(...)`` fills the slots through
their descriptors (:func:`~repro.utils.slots.slot_init`), not the frozen
``__init__``'s per-field ``object.__setattr__``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.slots import slot_init

#: Span categories, in the order reports list them.
CAT_STAGE = "stage"  # the three frame stages, per rank
CAT_COMM = "comm"  # one point-to-point message on the wire
CAT_COLL = "coll"  # one collective call, per participating rank
CAT_COMPOSE = "compose"  # compositing-specific activity (recv waits)
CAT_IO = "io"  # bridged physical I/O accesses
CAT_PROC = "proc"  # engine process lifetimes
CAT_FARM = "farm"  # rendering-service request phases (queue/alloc/serve)
CAT_EDGE = "edge"  # edge-tier activity (regional hits, coalesced joins, invalidations)
CAT_ADMIT = "admit"  # admission-control decisions (load-shed rejections)
CAT_FAULT = "fault"  # injected failures + recovery actions (crash/retry/failover)
CAT_PREFETCH = "prefetch"  # campaign-level pipelined I/O + compute lanes
CAT_PROGRESSIVE = "progressive"  # resolution-ladder levels (coarse-first refinement)

#: The frame stages, in pipeline order (Sec. III-B).
STAGES = ("io", "render", "composite")


@slot_init
@dataclass(frozen=True, slots=True)
class Span:
    """One timed activity on one rank, in simulated seconds."""

    rank: int  # -1 for activities not owned by a rank
    name: str
    cat: str
    t0: float
    t1: float
    frame: int = 0
    _kv: tuple = ()  # the arguments, flat: (key, value, key, value, ...)

    @property
    def dur(self) -> float:
        return self.t1 - self.t0

    def __reduce__(self):
        # Sharded runs pickle their shards' spans through pipes: one
        # constructor call per span beats the frozen-slots state protocol.
        return (Span, (self.rank, self.name, self.cat, self.t0, self.t1, self.frame, self._kv))

    @property
    def args(self) -> dict | None:
        """The span's keyword arguments in recording order; ``None`` if none."""
        kv = self._kv
        return dict(zip(kv[::2], kv[1::2])) if kv else None


class Tracer:
    """Span and counter recorder bound to the simulated clock.

    One tracer can span a whole campaign: call :meth:`begin_frame`
    before each frame (the pipeline does) and filter by frame when
    deriving per-frame views.  Counters accumulate across frames.
    """

    __slots__ = ("enabled", "spans", "counters", "link_bytes", "frame")

    def __init__(self, enabled: bool = True):
        self.enabled = bool(enabled)
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {}
        # (src_node, dst_node) -> bytes carried, for link-traffic maps.
        self.link_bytes: dict[tuple[int, int], int] = {}
        self.frame = 0

    # -- recording ----------------------------------------------------

    def begin_frame(self) -> int:
        """Open the next frame; returns its index (first frame is 0)."""
        if self.spans or self.counters:
            self.frame += 1
        return self.frame

    def span(self, rank: int, name: str, cat: str, t0: float, t1: float, **args) -> None:
        """Record one detail span; no-op when disabled."""
        if not self.enabled:
            return
        self.spans.append(
            # sum() of the (key, value) pairs: the flat tuple, cheapest
            # for the few arguments a span carries.
            Span(rank, name, cat, t0, t1, self.frame, sum(args.items(), ()))
        )

    def span_kv(self, rank: int, name: str, cat: str, t0: float, t1: float, kv: tuple) -> None:
        """:meth:`span` with the arguments already flat, ``(key, value, ...)``."""
        if self.enabled:
            self.spans.append(Span(rank, name, cat, t0, t1, self.frame, kv))

    def stage(self, rank: int, name: str, t0: float, t1: float) -> None:
        """Record a frame-stage span — always, even when disabled.

        Stage spans are the primary record :class:`FrameTiming` is
        derived from, so they bypass the ``enabled`` gate.
        """
        self.spans.append(Span(rank, name, CAT_STAGE, t0, t1, self.frame))

    def count(self, key: str, n: int = 1) -> None:
        """Bump a named counter; no-op when disabled."""
        if not self.enabled:
            return
        self.counters[key] = self.counters.get(key, 0) + n

    def link(self, src_node: int, dst_node: int, nbytes: int) -> None:
        """Attribute ``nbytes`` to the (src, dst) node pair; no-op off."""
        if not self.enabled:
            return
        k = (src_node, dst_node)
        self.link_bytes[k] = self.link_bytes.get(k, 0) + nbytes

    # -- derived views ------------------------------------------------

    def frame_spans(self, frame: int | None = None, cat: str | None = None) -> list[Span]:
        """Spans of one frame (default: the current one), optionally by category."""
        f = self.frame if frame is None else frame
        return [s for s in self.spans if s.frame == f and (cat is None or s.cat == cat)]

    def stage_durations(self, frame: int | None = None) -> dict[str, dict[int, float]]:
        """``{stage: {rank: seconds}}`` for one frame's stage spans."""
        out: dict[str, dict[int, float]] = {}
        for s in self.frame_spans(frame, CAT_STAGE):
            out.setdefault(s.name, {})[s.rank] = s.dur
        return out

    def stage_maxima(self, frame: int | None = None) -> dict[str, float]:
        """Max-across-ranks duration per stage — the paper's convention
        (a frame cannot finish before its slowest rank), and exactly
        what :class:`FrameTiming` reports."""
        return {
            stage: max(per_rank.values())
            for stage, per_rank in self.stage_durations(frame).items()
        }

    def counter(self, key: str) -> int:
        return self.counters.get(key, 0)

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "on" if self.enabled else "off"
        return (
            f"<Tracer {state}: {len(self.spans)} spans, "
            f"{len(self.counters)} counters, frame {self.frame}>"
        )
