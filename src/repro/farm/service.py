"""`RenderFarm`: the rendering service on the simulated machine.

The farm runs every moving part on one :class:`repro.sim.Engine` —
session arrival processes as coroutines, dispatch passes and job
deliveries as events — so queueing delay, allocation overhead, service
time, and machine utilization all share a single simulated clock (the
same clock semantics as the frame pipeline itself).

Every request ends one of two ways: *served now* without a partition
(:meth:`RenderFarm._serve_now` — an edge hit, an origin hit or in-queue
promotion, a coalesced waiter, a shed request: one body, different
data), or as a :class:`_Job` that holds nodes until its last pending
delivery fires.  A frame, a campaign, a ladder and a crashed job are
shapes of that job, not paths of their own.

A request moves through the **service tier** before it ever sees the
scheduler, in strict order:

1. **edge** — the regional :class:`~repro.farm.edge.EdgeCache`; a warm
   hit is served in zero time without touching the origin;
2. **origin** — the service-wide :class:`FrameResultCache` (this lookup
   is the only *counted* one: hits/misses here reconcile exactly with
   request-level accounting);
3. **single-flight** — with coalescing on, a request whose
   ``frame_key`` is already being rendered *attaches* to that in-flight
   job as a waiter instead of queueing a duplicate: K concurrent
   identical requests cost exactly one render and one partition boot;
4. **admission** — only a request that needs *new* render work spends a
   token from its tier's bucket
   (:class:`~repro.farm.admission.TokenBucketAdmission`); shed requests
   are rejected on the spot with explicit accounting, never silently
   dropped;
5. **queue** — the survivors are priced lazily (the backend renders at
   start, not at arrival, so a job satisfied from cache or coalescing
   while queued never renders at all) and scheduled FCFS with EASY
   backfill over the aligned :class:`NodeAllocator`:

* the head of the queue either starts immediately or gets a
  *reservation* — the earliest time it could start given the running
  jobs' (exactly known) end times;
* jobs behind it may backfill onto free nodes **only if they finish by
  that reservation**, which provably never delays the head job: by the
  reserved time every backfilled interval has been freed again, so the
  machine state the reservation was computed against is restored.

A dispatch pass runs only after a change that could let a queued job
start (:meth:`RenderFarm._kick`).  A request served now is not one: it
frees no node and caches no key, and since the last pass the free list
has only shrunk, the reservation only moved earlier and every backfill
window only narrowed, so a pass after it would start nothing.  The
reservation replay is memoised on the head's size and
``allocator.version`` (:meth:`RenderFarm._reservation`), which every
``alloc``, ``free`` and ``reserve`` bumps, and ``_stop_at`` too.

Every request emits ``queue`` and ``serve`` spans (plus ``alloc`` for
the rendered ones) in :data:`CAT_FARM`; edge hits and coalesced waiters
add zero-length markers in :data:`CAT_EDGE`, rejections in
:data:`CAT_ADMIT` — so span counts reconcile exactly with
:class:`FarmResult` (``FarmResult.accounting_failures()`` checks every
identity).

The farm owns only this lifecycle.  The autoscaled node pool is
:class:`~repro.farm.autoscale.NodePool` and the crash process with its
quarantine ledger is :class:`~repro.farm.crashes.CrashProcess`; each is
inert when unconfigured, and the crash process calls back into the
lifecycle only through :meth:`RenderFarm._kill_job`.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Any

from repro.farm.admission import TokenBucketAdmission
from repro.farm.allocator import NodeAllocator, SizePolicy
from repro.farm.autoscale import NodePool
from repro.farm.backends import ProgressivePayload, ServiceBackend
from repro.farm.cache import FrameResultCache
from repro.farm.crashes import CrashProcess
from repro.farm.edge import EdgeCache
from repro.farm.request import FrameRequest, RequestRecord
from repro.farm.result import FarmResult
from repro.farm.workload import SessionSpec, Workload
from repro.fault.plan import FarmFaults
from repro.machine.specs import BGP_ALCF
from repro.obs.tracer import CAT_ADMIT, CAT_EDGE, CAT_FARM, CAT_FAULT, CAT_PROGRESSIVE, Tracer
from repro.progressive.ladder import levels_before_move
from repro.sim.engine import Engine
from repro.sim.events import Future
from repro.utils.errors import ConfigError


@dataclass(slots=True)
class _Job:
    """One admitted render job waiting for or holding nodes.

    ``service_s``/``payload`` stay ``None`` until the job is *priced*
    (the backend render), which happens at start — never at arrival —
    so cache promotions and coalesced completions cost zero renders.
    ``waiters`` are the coalesced duplicates riding on this render; a
    started job ends at ``record.t_done``.
    """

    record: RequestRecord
    nodes: int
    done: Future
    key: tuple  # the request's frame_key, computed once at submit
    service_s: float | None = None
    payload: Any = None
    waiters: list[tuple[RequestRecord, Future]] = field(default_factory=list)
    backfilled: bool = False
    log_i: int = -1  # this boot's row in RenderFarm.allocation_log
    # Pending deliveries while the job holds nodes: one publish event
    # per coarse ladder level, then the finish.  A fired event leaves
    # the list (slot nulled / list emptied), so whatever is still here
    # is cancellable on a camera move or node crash.
    events: list = field(default_factory=list, repr=False)
    move_ev: Any = field(default=None, repr=False)  # the viewer's pending camera move

    @property
    def request(self) -> FrameRequest:
        return self.record.request


class RenderFarm:
    """A multi-tenant rendering service on one simulated machine."""

    def __init__(
        self,
        workload: Workload,
        backend: ServiceBackend,
        total_nodes: int = BGP_ALCF.total_nodes,
        size_policy: SizePolicy | None = None,
        result_cache_entries: int = 256,
        backfill: bool = True,
        alloc_overhead_s: float = 0.0,
        slo_s: float = 60.0,
        tracer: Tracer | None = None,
        faults: FarmFaults | None = None,
        coalesce: bool = True,
        edge: EdgeCache | None = None,
        admission: TokenBucketAdmission | None = None,
        autoscaler: Any | None = None,
    ):
        if alloc_overhead_s < 0:
            raise ConfigError(f"alloc_overhead_s must be >= 0, got {alloc_overhead_s}")
        self.workload = workload
        self.backend = backend
        self.size_policy = size_policy or SizePolicy()
        self.result_cache = FrameResultCache(result_cache_entries)
        self.backfill = bool(backfill)
        self.alloc_overhead_s = float(alloc_overhead_s)
        self.slo_s = float(slo_s)
        # ``is None``, not ``or``: an empty Tracer is falsy (len 0) but
        # still the caller's live sink.
        self.tracer = tracer if tracer is not None else Tracer(enabled=True)
        self.coalesce = bool(coalesce)
        self.edge = edge
        self.admission = admission
        self.autoscaler = autoscaler

        self.engine = Engine()
        self.allocator = NodeAllocator(total_nodes)
        self.records: list[RequestRecord] = []
        self.rejected: list[RequestRecord] = []
        self.backfilled = 0
        self.promotions = 0  # in-queue cache hits (frame cached while waiting)
        # (rid, interval, t_hold, t_end) for every partition ever booted;
        # the no-overlap scheduler invariant is checked against this log.
        self.allocation_log: list[tuple[str, tuple[int, int], float, float]] = []

        self._queue: deque[_Job] = deque()
        self._running: dict[str, _Job] = {}
        self._inflight: dict[tuple, _Job] = {}  # frame_key -> primary job
        self._coalesced = 0
        self._lane = {spec.name: i for i, spec in enumerate(workload.sessions)}
        self._total = workload.total_requests
        self._completed = 0
        self._dispatch_due = False  # a dispatch pass is scheduled or running
        self._nodes_for: dict[int, int] = {}  # cores -> partition size
        # The last reservation replay: ((head size, allocator version), time).
        self._reservation_memo: tuple[tuple[int, int], float] = ((0, -1), math.inf)
        self._util_node_s = 0.0
        self._ran = False

        # -- progressive-ladder books ---------------------------------
        self._cancelled_node_s = 0.0  # node-seconds reclaimed by camera moves
        self._levels_published = 0
        self._ladders_cancelled = 0

        self.pool = NodePool(self, autoscaler)
        self.crashes = CrashProcess(self, faults)

    # -- public -------------------------------------------------------

    def run(self) -> FarmResult:
        """Run the whole scenario to completion; one-shot."""
        if self._ran:
            raise ConfigError("RenderFarm.run() is one-shot; build a new farm")
        self._ran = True
        self.pool.start()
        for spec in self.workload.sessions:
            self.engine.spawn(self._session(spec), name=f"session.{spec.name}")
        self._kick()
        self.crashes.start()
        makespan = self.engine.run()
        provisioned_node_s = self.pool.close(makespan)
        return FarmResult(
            records=list(self.records),
            sessions=self.workload.sessions,
            slo_s=self.slo_s,
            makespan_s=makespan,
            total_nodes=self.allocator.total_nodes,
            util_node_seconds=self._util_node_s,
            result_cache_hits=self.result_cache.hits,
            result_cache_misses=self.result_cache.misses,
            plan_hits=self.backend.plan_hits,
            plan_misses=self.backend.plan_misses,
            backfilled=self.backfilled,
            backend=self.backend.name,
            trace=self.tracer,
            faults=self.crashes.stats(makespan),
            promotions=self.promotions,
            coalesced_requests=self._coalesced,
            rejected=list(self.rejected),
            result_cache_enabled=self.result_cache.enabled,
            provisioned_node_s=provisioned_node_s,
            cancelled_node_s=self._cancelled_node_s,
            levels_published=self._levels_published,
            ladders_cancelled=self._ladders_cancelled,
            edge=self.edge.summary() if self.edge is not None else None,
            admission=self.admission.summary() if self.admission is not None else None,
            autoscale=self.pool.summary(),
        )

    def invalidate_dataset(self, dataset: str) -> int:
        """A dataset published new data: flush it from origin and edge.

        Safe to call from a scheduled engine event mid-run (that is how
        the timestep-publication tests drive it).  Returns the total
        number of frames dropped across both tiers.
        """
        dropped = self.result_cache.invalidate_dataset(dataset)
        if self.edge is not None:
            dropped += self.edge.invalidate_dataset(dataset)
        return dropped

    # -- session processes --------------------------------------------

    def _session(self, spec: SessionSpec):
        """One tenant; only a closed one waits for its frame (and thinks)."""
        closed = spec.arrival == "closed"
        seed = self.workload.seed
        gaps = spec.think_times(seed) if closed else spec.interarrivals(seed)
        dwells = spec.dwell_times(seed)
        if spec.start_s > 0:
            yield float(spec.start_s)
        for i in range(spec.submissions):
            dwell = float(dwells[i])  # 0: a patient viewer, no camera move
            request = spec.request(i, cancel_after_s=dwell if dwell > 0 else None)
            if closed:
                yield self._submit(request)
                if gaps[i] > 0:
                    yield float(gaps[i])
            else:
                yield float(gaps[i])
                self._submit(request)

    # -- the service tier: edge -> origin -> coalesce -> admit --------

    def _submit(self, request: FrameRequest) -> Future:
        now = self.engine.now
        record = RequestRecord(request, t_arrive=now)
        done = Future(name=request.rid)
        key = request.frame_key

        if self.edge is not None:
            payload = self.edge.lookup(request.region, key, now)
            if payload is not None:
                # Served in-region: the origin never sees a warm edge hit.
                self.records.append(record)
                self._serve_now(
                    record, done, payload, "edge_hit", "edge",
                    ("edge-hit", CAT_EDGE), "region", request.region,
                )
                return done

        payload = self.result_cache.lookup(key)
        if payload is not None:
            # The frame was just delivered to this region: warm its edge.
            self.records.append(record)
            self._fill_edge(request, key, payload)
            self._serve_now(record, done, payload, "cache_hit", "cached")
            return done

        if request.is_progressive:
            # No full ladder cached — but a *coarse level* of this view
            # may be (published while an earlier ladder rendered, or
            # left behind by a truncated one).  Serve the finest cached
            # preview as the first pixel immediately; the ladder still
            # renders below.  Probes are uncounted (edge.peek /
            # cache.touch): the hit/miss books reconcile 1:1 with
            # served-from-cache records, and this request is not one.
            for lvl in range(request.levels - 2, -1, -1):
                lk = request.level_key(lvl)
                preview = None
                if self.edge is not None:
                    preview = self.edge.peek(request.region, lk, now)
                if preview is None:
                    preview = self.result_cache.touch(lk)
                if preview is not None:
                    record.coarse_hit = True
                    record.t_first_pixel = now
                    break

        # Progressive ladders are excluded from single-flight: a
        # primary whose viewer moves the camera truncates its ladder,
        # and handing waiters a partial ladder would break the
        # coalescing contract (same key => same full payload).
        single_flight = self.coalesce and not request.is_progressive
        if single_flight:
            primary = self._inflight.get(key)
            if primary is not None:
                self.records.append(record)
                self._coalesced += 1
                record.coalesced = True
                primary.waiters.append((record, done))
                return done

        nodes = self._nodes_for.get(request.cores)
        if nodes is None:
            nodes = self._nodes_for[request.cores] = self.size_policy.nodes_for(request.cores)
        if nodes > self.pool.max_nodes:
            raise ConfigError(
                f"request {request.rid} needs a {nodes}-node partition but the "
                f"farm can provision at most {self.pool.max_nodes} nodes"
            )

        # Only NEW render work spends an admission token: everything
        # above served the request without touching the machine.
        if self.admission is not None and not self.admission.admit(request.tier, now):
            # Shed by admission control: accounted, never served — no
            # queue/serve pair, and nothing was freed, so no dispatch.
            self.rejected.append(record)
            self._serve_now(
                record, done, None, "rejected", None,
                ("reject", CAT_ADMIT), "tier", request.tier,
            )
            return done

        self.records.append(record)
        job = _Job(record=record, nodes=nodes, done=done, key=key)
        if single_flight:
            self._inflight[key] = job
        self._queue.append(job)
        self._kick()
        return done

    def _serve_now(
        self, record: RequestRecord, done: Future, payload: Any, flag: str,
        tag: str | None, marker: tuple[str, str] | None = None, *marker_kv: Any,
    ) -> None:
        """Finish a request that never holds a partition: done *now*.

        ``flag`` is the record attribute that says how it ended; ``tag``
        labels the ``serve`` span of the ``queue``/``serve`` pair
        (``None``: never served, no pair); ``marker`` is the ``(name,
        category)`` of the zero-length span that reconciles with the
        flag's counter, ``marker_kv`` its flat arguments.  Whatever else
        differs between the endings — an edge fill, whether a dispatch
        pass is due — is the caller's line.
        """
        now = self.engine.now
        record.t_hold = record.t_serve = record.t_done = now
        setattr(record, flag, True)
        record.payload = payload
        if tag is not None:
            self._span(record, "queue", CAT_FARM, record.t_arrive, now)
            self._span(record, "serve", CAT_FARM, now, now, tag, True)
        if marker is not None:
            self._span(record, *marker, now, now, *marker_kv)
        self._note_completed()
        done.resolve(record)

    def _span(
        self, record: RequestRecord, name: str, cat: str, t0: float, t1: float, *kv: Any
    ) -> None:
        """One span on the request's session lane, tagged with its rid;
        ``kv`` is the rest of its arguments, flat: ``key, value, ...``."""
        request = record.request
        self.tracer.span_kv(
            self._lane[request.session], name, cat, t0, t1, ("req", request.rid, *kv)
        )

    def _fill_edge(self, request: FrameRequest, key: tuple, payload: Any) -> None:
        if self.edge is not None:
            self.edge.fill(request.region, key, payload, self.engine.now)

    def _resolve_waiters(self, job: _Job, payload: Any) -> None:
        """Complete every coalesced duplicate riding on ``job``, now.

        All waiters resolve at the same simulated instant with the
        *same payload object* the primary delivered — the single-flight
        contract the edge tests pin by identity.
        """
        for wrecord, wdone in job.waiters:
            self._fill_edge(wrecord.request, job.key, payload)
            self._serve_now(
                wrecord, wdone, payload, "coalesced", "coalesced", ("coalesced", CAT_EDGE)
            )
        job.waiters = []

    # -- the scheduler ------------------------------------------------

    def _kick(self) -> None:
        """Run a dispatch pass at this instant, after the current event.

        Called by whatever could let a queued job start: a submit that
        queues, a finish, a kill, a grown pool, a repaired node; never
        by a request served now.  One pass serves every kick raised
        before it ends, also those raised inside it: a second pass would
        find free nodes only shrunk, caches probed, prices memoised,
        reservations written."""
        if not self._dispatch_due:
            self._dispatch_due = True
            self.engine.schedule(0.0, self._dispatch)

    def _dispatch(self) -> None:
        """One pass over the queue: FCFS until a job does not fit, then
        EASY backfill behind that blocked head."""
        now = self.engine.now
        shadow = None  # the blocked head's earliest start, once a head blocked
        for job in list(self._queue):
            if self._dispatch_cached(job):
                self._queue.remove(job)
                continue
            if shadow is not None and (
                now + (self.alloc_overhead_s + self._price(job)) > shadow + 1e-12
            ):
                continue  # would overrun the head job's reservation
            interval = self.allocator.alloc(job.nodes)
            if interval is not None:
                self._queue.remove(job)
                if shadow is not None:
                    job.backfilled = True
                    self.backfilled += 1
                self._start(job, interval)
            elif shadow is None:
                # Head blocked: reserve its earliest possible start, then
                # let later jobs backfill without touching that reservation.
                shadow = self._reservation(job)
                if job.record.reserved_start is None and math.isfinite(shadow):
                    job.record.reserved_start = shadow
                if not self.backfill:
                    break
        self._dispatch_due = False

    def _dispatch_cached(self, job: _Job) -> bool:
        """Complete a queued job whose frame got cached while it waited.

        The recency refresh uses :meth:`FrameResultCache.touch`, which
        does **not** count a lookup: this hit is accounted as a
        *promotion* at the request level, and counting it again at the
        cache level would break ``cache_hits == lookup_hits +
        promotions``.
        """
        payload = self.result_cache.touch(job.key)
        if payload is None:
            return False
        self.promotions += 1
        job.record.promoted = True
        if self._inflight.get(job.key) is job:
            del self._inflight[job.key]
        self._fill_edge(job.request, job.key, payload)
        self._serve_now(job.record, job.done, payload, "cache_hit", "cached")
        self._resolve_waiters(job, payload)
        return True

    def _reservation(self, job: _Job) -> float:
        """:meth:`_shadow_time`, replayed only when the machine changed.

        The replay reads the free list and the running jobs' intervals
        and end times.  Each change to those bumps
        ``allocator.version``: ``alloc``, ``free`` and ``reserve`` do
        (a job starts or ends with one of them), and so does
        :meth:`_stop_at`, which moves a running job's end.  An equal
        (head size, version) key therefore replays to an equal time.
        """
        key = (job.nodes, self.allocator.version)
        memo_key, shadow = self._reservation_memo
        if key != memo_key:
            shadow = self._shadow_time(job)
            self._reservation_memo = (key, shadow)
        return shadow

    def _shadow_time(self, job: _Job) -> float:
        """Earliest time ``job`` fits, replaying running jobs' releases."""
        ghost = self.allocator.clone()
        for other in sorted(
            self._running.values(), key=lambda j: (j.record.t_done, j.record.interval)
        ):
            ghost.free(other.record.interval)  # type: ignore[arg-type]
            if ghost.fits(job.nodes):
                return other.record.t_done
        # Even the drained pool is too small (autoscale fence or
        # quarantine): no reservation to protect, so backfill runs
        # free until the pool grows.
        return math.inf

    # -- job lifecycle ------------------------------------------------

    def _price(self, job: _Job) -> float:
        """Render (once) to learn the job's service time and payload.

        Deliberately lazy: a job that never starts — promoted from the
        queue by a cached frame, or coalesced away — never calls the
        backend at all.  The edge tests pin this with a counting stub.
        """
        if job.service_s is None:
            job.service_s, job.payload = self.backend.render(
                job.request, self.size_policy.cores_for(job.nodes)
            )
        return job.service_s

    def _start(self, job: _Job, interval: tuple[int, int]) -> None:
        now = self.engine.now
        service_s = self._price(job)
        record = job.record
        record.t_hold = now
        record.t_serve = now + self.alloc_overhead_s
        record.t_done = record.t_serve + service_s
        record.nodes = job.nodes
        record.interval = interval
        self._running[job.request.rid] = job
        self._util_node_s += job.nodes * (record.t_done - now)
        job.log_i = len(self.allocation_log)
        self.allocation_log.append((job.request.rid, interval, now, record.t_done))
        job.events = [self.engine.schedule_at(record.t_done, partial(self._finish, job))]
        if job.request.is_progressive and isinstance(job.payload, ProgressivePayload):
            self._schedule_ladder(job)

    def _release(self, job: _Job) -> None:
        """Hand the job's partition back: free it, drop it from the running set."""
        self.allocator.free(job.record.interval)  # type: ignore[arg-type]
        self._running.pop(job.request.rid)

    def _stop_at(self, job: _Job, t: float) -> float:
        """The job ends at ``t``, before the planned end: un-credit (and
        return) the unserved node-seconds and truncate the boot's
        allocation-log row, so the no-overlap invariant holds when the
        nodes are reused early."""
        unserved = job.nodes * (job.record.t_done - t)
        self._util_node_s -= unserved
        job.record.t_done = t
        self.allocator.version += 1  # a reservation replay reads t_done
        rid, interval, t_hold, _ = self.allocation_log[job.log_i]
        self.allocation_log[job.log_i] = (rid, interval, t_hold, t)
        return unserved

    # -- progressive ladders ------------------------------------------

    def _schedule_ladder(self, job: _Job) -> None:
        """Turn the payload's level clock into publish/move events.

        Levels 0..L-2 get their own publish events (the final level is
        the job's normal finish); the viewer's camera move lands
        ``cancel_after_s`` after serve start, and gets an event only if
        it cuts a level (:func:`levels_before_move`).
        """
        payload = job.payload
        record = job.record
        record.levels_total = payload.levels
        tfp = record.t_serve + payload.ttfp_s
        # A coarse cache hit at arrival may already have shown a pixel;
        # first pixel is whichever came first.
        record.t_first_pixel = (
            tfp if record.t_first_pixel is None else min(record.t_first_pixel, tfp)
        )
        job.events[:0] = [
            self.engine.schedule_at(
                record.t_serve + payload.level_end_s[lvl],
                partial(self._publish_level, job, lvl),
            )
            for lvl in range(payload.levels - 1)
        ]
        cancel = job.request.cancel_after_s
        delivered = levels_before_move(payload.level_end_s, cancel)
        if delivered < payload.levels:
            job.move_ev = self.engine.schedule_at(
                record.t_serve + float(cancel), partial(self._camera_move, job, delivered)
            )

    def _level_span(self, job: _Job, lvl: int) -> None:
        """Level ``lvl`` is delivered *now*: its span and its counters."""
        record = job.record
        payload = job.payload
        prev_end = 0.0 if lvl == 0 else payload.level_end_s[lvl - 1]
        self._span(
            record, "level", CAT_PROGRESSIVE, record.t_serve + prev_end, self.engine.now,
            "level", lvl, "edge", payload.edges[lvl],
        )
        record.levels_done += 1
        self._levels_published += 1

    def _publish_level(self, job: _Job, lvl: int) -> None:
        """A coarse level landed: show it and cache it under its own key.

        The store/fill are deliberately uncounted (``store``/``fill``
        never touch the hit/miss books) — publishing is a side effect
        of this render, not a cache transaction of any request.
        """
        payload = job.payload
        job.events[lvl] = None
        self._level_span(job, lvl)
        preview = {
            "level": lvl,
            "of": payload.levels,
            "edge": payload.edges[lvl],
            "payload": payload,
        }
        lk = job.request.level_key(lvl)
        self.result_cache.store(lk, preview)
        self._fill_edge(job.request, lk, preview)

    def _camera_move(self, job: _Job, delivered: int) -> None:
        """The viewer moved: the first ``delivered`` levels land, every
        un-started one is cancelled and its node-seconds handed back to
        the machine."""
        now = self.engine.now
        record = job.record
        job.move_ev = None
        new_end = record.t_serve + job.payload.level_end_s[delivered - 1]
        for ev in job.events[delivered:]:
            if ev is not None:
                ev.cancel()
        self._cancelled_node_s += self._stop_at(job, new_end)
        self._ladders_cancelled += 1
        record.ladder_cancelled = True
        job.events[delivered:] = [self.engine.schedule_at(new_end, partial(self._finish, job))]
        self._span(
            record, "ladder-cancelled", CAT_PROGRESSIVE, now, now,
            "completes", delivered, "of", job.payload.levels,
        )

    def _finish(self, job: _Job) -> None:
        record = job.record
        job.events = []  # the last delivery just fired; also unties job <-> event
        self._release(job)
        self._span(record, "queue", CAT_FARM, record.t_arrive, record.t_hold)
        self._span(record, "alloc", CAT_FARM, record.t_hold, record.t_serve, "nodes", job.nodes)
        self._span(
            record, "serve", CAT_FARM, record.t_serve, record.t_done,
            "nodes", job.nodes, "backfilled", job.backfilled,
        )
        record.payload = job.payload
        if self._inflight.get(job.key) is job:
            del self._inflight[job.key]
        if not record.ladder_cancelled:
            if job.request.is_progressive:
                # The final (full-res) level is delivered by the job's
                # own finish; give it the same per-level span the coarse
                # ones got so span counts reconcile with levels
                # delivered.
                self._level_span(job, job.payload.levels - 1)
            # A truncated ladder is a *partial* payload: never cache it
            # under the full frame_key (its published coarse levels
            # stay under their own level keys).
            self.result_cache.store(job.key, job.payload)
            self._fill_edge(job.request, job.key, job.payload)
        self._note_completed()
        job.done.resolve(record)
        self._resolve_waiters(job, job.payload)
        self._kick()

    def _note_completed(self) -> None:
        self._completed += 1
        if self._completed >= self._total:
            self.crashes.stop()
            self.pool.stop()

    # -- the one lifecycle call the crash process makes ---------------

    def _kill_job(self, job: _Job, node: int, now: float) -> None:
        record = job.record
        # The job dies with its partition: cancel every pending
        # delivery and the pending camera move, and reset the
        # per-request ladder books (the requeue re-renders the whole
        # ladder; global counters keep history, which is why their
        # identities are fault-free only).
        for ev in job.events:
            if ev is not None:
                ev.cancel()
        job.events = []
        if job.move_ev is not None:
            job.move_ev.cancel()
            job.move_ev = None
        record.levels_done = 0
        record.ladder_cancelled = False
        self._release(job)
        # Roll back the utilization credited for the unserved remainder
        # (the crash process charges the partial work that evaporated).
        self._stop_at(job, now)
        record.retries += 1
        if record.t_first_fail is None:
            record.t_first_fail = now
        record.interval = None
        record.reserved_start = None  # void: the machine changed under it
        job.backfilled = False
        self._span(
            record, "killed", CAT_FAULT, record.t_hold, now, "node", node, "retry", record.retries
        )
        # The job requeues ONCE, waiters still attached; its _inflight
        # entry stays, so new duplicates keep coalescing onto it.
        self._queue.append(job)
        self._kick()
