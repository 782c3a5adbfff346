"""Requests and per-request accounting records for the rendering service.

A :class:`FrameRequest` is what a client session asks the farm for: one
frame of one dataset at one time step, seen through one camera and
transfer function, to be rendered on a requested number of cores.  The
``frame_key`` identifies the *image* (dataset, step, camera, transfer)
independently of how it is executed — two requests with equal keys
produce bitwise the same frame, which is exactly what the service-wide
result cache is allowed to exploit.

A :class:`RequestRecord` is the service's ledger entry for one request:
arrival, allocation, service, and completion timestamps on the shared
simulated clock, from which queueing delay, service time, end-to-end
latency, and SLO attainment all derive.

Both are slotted dataclasses (no instance dict): a farm run keeps one of
each per arrival.  A request's ``rid`` string is built once, at
construction, and kept in a slot outside the dataclass fields, so every
span, the ``done`` future and the allocation log of one request share
one string, and ``dataclasses.fields`` / ``astuple`` see exactly the
declared fields.  ``FrameRequest(...)`` fills its slots through their
descriptors (:func:`~repro.utils.slots.slot_init`) and stays frozen.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.utils.slots import slot_init


class _RidSlot:
    """Holds :attr:`FrameRequest.rid` outside the dataclass fields."""

    __slots__ = ("rid",)


@slot_init
@dataclass(frozen=True, slots=True)
class FrameRequest(_RidSlot):
    """One client's ask: render this frame on that many cores.

    A *campaign* request (``frames > 1``) asks for a whole pipelined
    animation in one submission — ``frames`` camera-orbit frames
    starting at ``azimuth_deg`` and advancing ``orbit_deg`` per frame,
    rendered with depth-``prefetch_depth`` I/O prefetch.  It moves
    through the service tier as one job: one queue slot, one partition,
    one payload (all the frames).
    """

    session: str
    seq: int  # per-session sequence number
    dataset: str
    step: int
    azimuth_deg: float
    elevation_deg: float
    variable: str = "pressure"
    cores: int = 4096
    io_mode: str = "raw"
    region: str = "global"  # edge region the request is served from
    tier: str = "standard"  # tenant class for admission control
    frames: int = 1  # >1: a pipelined campaign (orbit animation) job
    orbit_deg: float = 0.0  # campaign azimuth advance per frame
    prefetch_depth: int = 1  # campaign I/O prefetch depth
    levels: int = 1  # >1: a progressive ladder (coarse-first refinement)
    cancel_after_s: float | None = None  # viewer's camera move, relative to serve start

    @property
    def is_campaign(self) -> bool:
        return self.frames > 1

    @property
    def is_progressive(self) -> bool:
        return self.levels > 1

    def __post_init__(self) -> None:
        # The service-wide request id, e.g. ``browse0/17``: built once,
        # then shared by every span, future and log line of the request.
        object.__setattr__(self, "rid", f"{self.session}/{self.seq}")

    def __reduce__(self):
        # Copies and pickles rebuild through __init__, so they get a rid.
        return (type(self), tuple(getattr(self, f.name) for f in fields(self)))

    @property
    def frame_key(self) -> tuple:
        """Identity of the rendered image (dataset, step, camera, transfer).

        Camera angles are rounded so floating-point noise in workload
        generators cannot split logically identical frames across cache
        entries.  A campaign's key additionally carries its frame count
        and orbit step — the delivered payload is every frame of the
        animation, so only an identical animation may share it.  The
        prefetch depth is deliberately *not* part of the key: it
        changes when the frames are ready, never what they contain.
        """
        key = (
            self.dataset,
            int(self.step),
            round(float(self.azimuth_deg) % 360.0, 6),
            round(float(self.elevation_deg), 6),
            self.variable,
        )
        if self.frames > 1:
            key += ("campaign", int(self.frames), round(float(self.orbit_deg), 6))
        if self.levels > 1:
            # A ladder's full payload carries every level, so only an
            # equal-depth ladder may share it.  ``cancel_after_s`` is
            # deliberately excluded: the viewer's patience changes how
            # far the ladder got, never what any delivered level shows
            # — and truncated ladders are never stored under this key.
            key += ("progressive", int(self.levels))
        return key

    def level_key(self, level: int) -> tuple:
        """Cache identity of one delivered ladder level.

        Coarse levels are cached under their own keys the moment they
        land, so a repeat visit to the same view coarse-hits instantly
        while (or before) the fine levels render.
        """
        return self.frame_key + ("level", int(level))


@dataclass(slots=True)
class RequestRecord:
    """The ledger entry for one request, filled in as it moves through.

    Timestamps are simulated seconds on the farm engine's clock.  For a
    result-cache hit the request never holds a partition: ``t_hold`` and
    ``t_serve`` collapse onto the completion time and every stage
    duration is zero.
    """

    request: FrameRequest
    t_arrive: float
    t_hold: float = 0.0  # allocation granted; partition boot begins
    t_serve: float = 0.0  # rendering starts (boot finished)
    t_done: float = 0.0  # frame delivered
    nodes: int = 0  # partition size actually allocated (0 for cache hits)
    interval: tuple[int, int] | None = None  # allocated node range [lo, hi)
    cache_hit: bool = False  # served from the origin result cache
    promoted: bool = False  # cache hit that happened in-queue (frame cached while waiting)
    edge_hit: bool = False  # served from the regional edge cache
    coalesced: bool = False  # attached to an identical in-flight render (single-flight)
    rejected: bool = False  # shed by admission control; never served
    payload: object = field(default=None, repr=False, compare=False)
    # ^ the delivered frame (or priced estimate).  Every coalesced
    #   waiter shares the primary's payload object — the single-flight
    #   invariant tests pin identity, not equality.
    reserved_start: float | None = field(default=None, repr=False)
    # ^ EASY-backfill reservation recorded the first time this request
    #   blocked at the head of the queue; the scheduler invariant is
    #   t_hold <= reserved_start (backfill never delays the head job).
    #   A node crash can void a reservation, so fault runs treat it as
    #   best-effort.
    retries: int = 0  # times a node crash killed this job and it was requeued
    t_first_fail: float | None = field(default=None, repr=False)
    # ^ when the first crash killed this job; t_done - t_first_fail is
    #   the request's contribution to farm MTTR.
    t_first_pixel: float | None = None
    # ^ progressive only: when the first (coarsest) level — or a coarse
    #   cache hit standing in for it — reached the viewer.
    levels_total: int = 0  # ladder depth planned for this request
    levels_done: int = 0  # levels actually delivered
    ladder_cancelled: bool = False  # a camera move truncated the ladder
    coarse_hit: bool = False  # a cached coarse level served the first pixel

    @property
    def rendered(self) -> bool:
        """Cost a render and a partition of its own: not cached, coalesced or shed."""
        return not (self.cache_hit or self.edge_hit or self.coalesced or self.rejected)

    @property
    def queue_s(self) -> float:
        return self.t_hold - self.t_arrive

    @property
    def serve_s(self) -> float:
        return self.t_done - self.t_serve

    @property
    def latency_s(self) -> float:
        """End-to-end: arrival to delivered frame."""
        return self.t_done - self.t_arrive

    @property
    def ttfp_s(self) -> float:
        """Time to first pixel: arrival to the first delivered level.

        Falls back to full latency when no level timestamp was recorded
        (non-progressive requests, or rejected ladders).
        """
        if self.t_first_pixel is None:
            return self.latency_s
        return self.t_first_pixel - self.t_arrive

    def meets(self, slo_s: float) -> bool:
        """Progressive requests meet their SLO on time-to-first-pixel —
        the interactive contract is "show me *something* fast" — all
        others on end-to-end latency."""
        if self.request.is_progressive:
            return self.ttfp_s <= slo_s
        return self.latency_s <= slo_s
