"""The discrete-event engine and coroutine process driver.

Hot-path design (the engine executes hundreds of thousands of events
per simulated frame at paper scale, so the event loop is written for
throughput without giving up determinism):

* **One binary heap.**  The queue is a :mod:`heapq` list of
  :class:`Event` entries.  Each event is its own 4-element
  ``[time, priority, seq, fn]`` list, so scheduling allocates exactly
  one object, and the heap's C sifts compare entries element-wise.
  Push and pop each cost ``O(log n)``, so ``k`` events that land ahead
  of a long queue cost ``O(k log n)``, never a re-sort of what is
  already queued.

* **One heap entry per batch.**  :meth:`Engine.schedule_stream` queues
  a batch (a rank's ``isend_many``) as one entry for its earliest
  element; the rest wait in two sorted 8-byte arrays, and the entry
  re-sifts in place (one ``heapreplace``) with the next element's key
  as each one fires.  The heap holds a few thousand stream heads.

* **Ready deque for same-timestamp resumes.**  Starting or resuming a
  process at the current time (spawn, future resolved, zero delay)
  bypasses the queue entirely, inside the run loop or outside it: the
  ``(seq, process, value)`` entry joins a FIFO that the run loop
  merges against the heap top by full ``(time, priority, seq)`` key,
  so ordering is bitwise-identical to a ``schedule(0.0, ...)``
  round-trip — sequence numbers come from the same counter — without
  allocating an Event or a closure.

* **No per-event closures.**  Delays resume through a prebound
  ``process._step_none``; futures resume processes directly (a
  :class:`Process` is callable, so it can sit in a future's callback
  list); cancellation nulls ``Event.fn`` in place, and so does the run
  loop when it pops an event to execute it — a cancel() that comes after
  the event ran finds no callback and changes nothing.
"""

from __future__ import annotations

from array import array
from collections import deque
from functools import partial
from heapq import heapify, heappop, heappush, heapreplace
from typing import Any, Callable, Generator, Optional

from repro.sim.events import AllOf, Delay, Event, Future
from repro.utils.errors import DeadlockError, SimulationError

Yieldable = Any  # Delay | float | Future | AllOf

_INF = float("inf")
_FUTURE_SUBCLASSES = Future.subclasses
_EV_NEW = Event.__new__
_EV_FILL = list.__init__  # fills [time, priority, seq, fn] in one C call


class Process:
    """Drives one coroutine (generator) inside an :class:`Engine`.

    The generator's ``return`` value resolves :attr:`done`, so parent
    processes can ``result = yield child.done``.

    A process is *callable*: ``proc(value)`` requeues it on its engine
    with ``value`` as the next send-value.  That lets a process sit
    directly in a :class:`Future`'s callback list — same registration
    order as plain callbacks, no adapter closure.
    """

    __slots__ = (
        "engine", "gen", "name", "done", "waiting_on", "_finished",
        "steps", "spawned_at", "_step_none",
    )

    def __init__(self, engine: "Engine", gen: Generator, name: str):
        self.engine = engine
        self.gen = gen
        self.name = name
        self.done = Future(name=f"{name}.done")
        self.waiting_on: Any = "start"
        self._finished = False
        self.steps = 0  # generator resumptions — the process's event count
        self.spawned_at = engine.now
        self._step_none = partial(self._step, None)

    @property
    def finished(self) -> bool:
        return self._finished

    def __call__(self, value: Any) -> None:
        """Requeue at the current time with ``value`` — the entry point
        for future resolution, zero delays and spawning.

        This goes through the ready deque — no Event, no closure — at
        the exact ``(now, 0, seq)`` position a zero-delay schedule
        would have taken, inside the run loop or outside it.
        """
        eng = self.engine
        eng._seq = seq = eng._seq + 1
        eng._ready.append((seq, self, value))

    def kill(self) -> None:
        """Terminate the process from outside (fault injection).

        The generator is closed where it stands, the process counts as
        finished, and its ``done`` future resolves with ``None`` if
        still pending.  Stale wakeups (a scheduled delay or a future
        the process was parked on) are absorbed by the finished guard
        in :meth:`_step`.
        """
        if self._finished:
            return
        self._finished = True
        self.waiting_on = "killed"
        self.gen.close()
        eng = self.engine
        if eng.tracer is not None and eng.tracer.enabled:
            eng.tracer.span(
                -1, self.name, "proc", self.spawned_at, eng.now,
                steps=self.steps, killed=True,
            )
        if not self.done.done:
            self.done.resolve(None)

    def _step(self, send_value: Any) -> None:
        """Resume the generator, then dispatch whatever it yields next."""
        if self._finished:
            return  # killed while a wakeup was already queued
        self.steps += 1
        try:
            yielded = self.gen.send(send_value)
        except StopIteration as stop:
            self._finished = True
            self.waiting_on = "finished"
            eng = self.engine
            if eng.tracer is not None and eng.tracer.enabled:
                eng.tracer.span(
                    -1, self.name, "proc", self.spawned_at, eng.now,
                    steps=self.steps,
                )
            self.done.resolve(stop.value)
            return
        cls = yielded.__class__
        if cls is Future or cls in _FUTURE_SUBCLASSES:  # the common yield
            self.waiting_on = yielded
            if yielded.done:
                # Requeue rather than step: simultaneous resumptions keep
                # deterministic seq ordering and the stack stays flat.
                self(yielded.value)
            elif yielded._callbacks is None:
                yielded._callbacks = [self]
            else:
                yielded._callbacks.append(self)
            return
        self._dispatch(yielded)

    def _dispatch(self, yielded: Yieldable) -> None:
        """Everything but a future (:meth:`_step` takes those)."""
        eng = self.engine
        cls = yielded.__class__
        if cls is Delay:
            self.waiting_on = yielded
            seconds = yielded.seconds
            if seconds == 0.0:
                self(None)
            else:
                eng._schedule_step(seconds, self)
        elif cls is AllOf:
            self.waiting_on = yielded
            self._wait_all(yielded)
        elif isinstance(yielded, (int, float)):
            self._dispatch(Delay(float(yielded)))
        else:
            self._finished = True
            err = SimulationError(
                f"process {self.name} yielded unsupported object {yielded!r}"
            )
            self.gen.close()
            raise err

    def _wait_all(self, group: AllOf) -> None:
        futures = group.futures
        pending = [f for f in futures if not f.done]
        if not pending:
            self([f.value for f in futures])
            return
        remaining = [len(pending)]

        def one_done(_value: Any) -> None:
            remaining[0] -= 1
            if remaining[0] == 0:
                self([f.value for f in futures])

        for f in pending:
            f.add_done_callback(one_done)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Process {self.name} waiting_on={self.waiting_on!r}>"


class _Stream(list):
    """One batch of :meth:`Engine.schedule_stream`: its own heap entry,
    ``[time, 0, seq, fire]`` for its next unfired element.

    ``times`` are the batch's times in ``(time, seq)`` order and
    ``index`` each one's position in the batch (8 bytes apiece): the
    ``k``-th to fire runs ``fns[index[k]]()`` as sequence number
    ``base + index[k]``, the one the ``schedule_at`` loop would give it.
    """

    __slots__ = ("engine", "times", "index", "fns", "base", "k", "last")

    def __init__(self, engine: "Engine", times: array, index: array,
                 fns: list[Callable], base: int):
        self.engine = engine
        self.times = times
        self.index = index
        self.fns = fns
        self.base = base
        self.k = 0
        self.last = len(index) - 1
        list.__init__(self, (times[0], 0, base + index[0], self.fire))
        heappush(engine._queue, self)

    def fire(self) -> None:
        """Run the head element, called on top of the heap: first re-key
        and re-sift the entry for the next one, or pop it when spent."""
        k = self.k
        index = self.index
        fn = self.fns[index[k]]
        eng = self.engine
        if k < self.last:
            self.k = k = k + 1
            self[0] = self.times[k]
            self[2] = self.base + index[k]
            heapreplace(eng._queue, self)
            eng._backlog -= 1
        else:
            heappop(eng._queue)
            self[3] = None  # spent: break the self-reference
        fn()


class Engine:
    """A deterministic discrete-event simulation engine.

    Typical use::

        eng = Engine()
        procs = [eng.spawn(program(eng, rank), name=f"rank{rank}") for rank in range(8)]
        eng.run()
        results = [p.done.value for p in procs]

    ``run()`` raises :class:`DeadlockError` if processes remain blocked
    with an empty event queue — the simulated-MPI analogue of a hung job.

    Events execute in strict ``(time, priority, seq)`` order, where
    ``seq`` counts every scheduling action (queue pushes *and* ready
    resumes share the counter), so runs are bitwise-reproducible.
    """

    def __init__(self, tracer=None) -> None:
        self.now: float = 0.0
        # Time of the last *executed* event.  ``run(until=...)`` ratchets
        # ``now`` forward to the horizon even when nothing ran, so windowed
        # drivers (repro.sim.parallel) read this to report true elapsed time.
        self.last_event_time: float = 0.0
        self.tracer = tracer  # optional repro.obs.Tracer (process spans)
        # The event queue: a heapq list of [time, priority, seq, fn]
        # entries.  run() holds a local reference, so it is only ever
        # changed in place.
        self._queue: list[Event] = []
        # Same-timestamp process resumes: (seq, process, send_value).
        self._ready: deque[tuple[int, "Process", Any]] = deque()
        self._seq = 0
        self._processes: list[Process] = []
        self._running = False
        self._cancelled = 0  # cancelled events still sitting in the queue
        # Unfired stream elements behind their stream's queued head.
        self._backlog = 0
        # Per-engine Event subclass: the cancel-notification callback
        # rides on the *class* (shadowing the inherited slot), so
        # schedule() skips one per-event attribute store.  Bound
        # methods return themselves from class attribute lookup.
        self._ev_cls = type(
            "_EngineEvent", (Event,), {"__slots__": (), "on_cancel": self._note_cancelled}
        )

    # -- scheduling ---------------------------------------------------

    def schedule(self, delay: float, fn: Callable[[], None], priority: int = 0) -> Event:
        """Schedule ``fn`` to run ``delay`` seconds from now."""
        if not (0 <= delay < _INF):
            raise SimulationError(f"cannot schedule: negative or non-finite delay {delay!r}")
        self._seq = seq = self._seq + 1
        ev = _EV_NEW(self._ev_cls)
        _EV_FILL(ev, (self.now + delay, priority, seq, fn))
        heappush(self._queue, ev)
        return ev

    def schedule_at(self, time: float, fn: Callable[[], None], priority: int = 0) -> Event:
        """Schedule ``fn`` at an absolute simulated time."""
        if not (self.now <= time < _INF):
            raise SimulationError(
                f"cannot schedule at t={time!r}: not in [now={self.now!r}, inf)"
            )
        self._seq = seq = self._seq + 1
        ev = _EV_NEW(self._ev_cls)
        _EV_FILL(ev, (time, priority, seq, fn))
        heappush(self._queue, ev)
        return ev

    def schedule_stream(self, times: list[float], fns: list[Callable]) -> None:
        """Queue ``fns[k]()`` at ``times[k]`` for a batch, as one heap
        entry (a :class:`_Stream`), in exactly the order and with the
        sequence numbers of a :meth:`schedule_at` loop: a stable sort
        keeps equal times in batch order, and a batch of one is that
        loop's one event.  A bad time raises before anything is queued
        or numbered.  Streams are not cancellable."""
        n = len(fns)
        if n < 2:
            if n:
                self.schedule_at(times[0], fns[0])
            return
        order = sorted(range(n), key=times.__getitem__)
        ts = [times[i] for i in order]
        now = self.now
        # Without a NaN the sort is total and the two ends check the
        # batch; a NaN (or inf + -inf) makes the sum NaN.
        if not (now <= ts[0] and ts[-1] < _INF) or (s := sum(ts)) != s:
            bad = next(x for x in times if not (now <= x < _INF))
            raise SimulationError(
                f"cannot schedule at t={bad!r}: not in [now={now!r}, inf)"
            )
        self._seq = (base := self._seq) + n
        self._backlog += n - 1
        _Stream(self, array("d", ts), array("q", order), fns, base + 1)

    def _schedule_step(self, delay: float, proc: Process) -> None:
        """Queue ``proc._step(None)`` after ``delay`` — the Delay resume
        path, identical to :meth:`schedule` but with the process's
        prebound step callable (no closure allocation)."""
        self._seq = seq = self._seq + 1
        ev = _EV_NEW(self._ev_cls)
        _EV_FILL(ev, (self.now + delay, 0, seq, proc._step_none))
        heappush(self._queue, ev)

    def _note_cancelled(self) -> None:
        """Keep the live cancelled count; compact when they dominate.

        Compaction rebuilds the heap without cancelled entries once
        they exceed half the queued entries, so long campaigns that
        cancel many timeouts never let dead events accumulate without
        bound.  It works in place: :meth:`run` holds the list.
        """
        self._cancelled += 1
        q = self._queue
        if self._cancelled * 2 > len(q):
            q[:] = [e for e in q if e[3] is not None]
            heapify(q)
            self._cancelled = 0

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Register a coroutine process and start it at the current time."""
        proc = Process(self, gen, name or f"proc{len(self._processes)}")
        self._processes.append(proc)
        proc(None)
        return proc

    # -- execution ----------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Run events until the queue drains (or simulated time ``until``).

        Returns the final simulated time.  Checks for deadlock: the
        queue drained but some spawned process has not finished.
        """
        if self._running:
            raise SimulationError("engine.run() is not reentrant")
        self._running = True
        horizon = _INF if until is None else until
        ran_any = False
        try:
            q = self._queue
            ready = self._ready
            now = self.now
            while True:
                if ready:
                    # Ready entries sit at (now, 0, seq): take one unless
                    # a queued event orders strictly before it.
                    if q:
                        e = q[0]
                        t = e[0]
                        take_ready = t > now or (
                            t == now
                            and (e[1] > 0 or (e[1] == 0 and e[2] > ready[0][0]))
                        )
                    else:
                        take_ready = True
                    if take_ready:
                        _seq, proc, value = ready.popleft()
                        ran_any = True
                        proc._step(value)
                        continue
                if not q:
                    break
                entry = q[0]
                fn = entry[3]
                if fn is None:  # cancelled — drop
                    heappop(q)
                    self._cancelled -= 1
                    continue
                t = entry[0]
                if t > horizon:  # leave the event queued
                    if ran_any:
                        self.last_event_time = now
                    self.now = until
                    return until
                if t < now:
                    raise SimulationError("event queue yielded time running backwards")
                now = self.now = t
                ran_any = True
                if entry.__class__ is not _Stream:  # a stream pops itself
                    heappop(q)
                    # Executed: a later cancel() of this handle is a
                    # no-op, never a queued cancellation.
                    entry[3] = None
                fn()
            if ran_any:
                self.last_event_time = self.now
        finally:
            self._running = False
        blocked = [p.name for p in self._processes if not p.finished]
        if blocked and until is None:
            raise DeadlockError(blocked)
        return self.now

    @property
    def pending_events(self) -> int:
        """Number of queued (non-cancelled) events, unfired stream
        elements and pending resumes — O(1) via the live cancellation
        and stream-backlog counters."""
        return len(self._queue) + len(self._ready) - self._cancelled + self._backlog

    @property
    def next_event_time(self) -> float:
        """Earliest time at which this engine will execute something:
        ``now`` with a resume ready, ``inf`` when the queue is drained.
        Cancelled entries on top of the heap are dropped first."""
        if self._ready:
            return self.now
        q = self._queue
        while q and q[0][3] is None:
            heappop(q)
            self._cancelled -= 1
        return q[0][0] if q else _INF
