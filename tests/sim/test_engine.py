"""Engine and process semantics: determinism, time, deadlock."""

from functools import partial
from math import inf

import pytest
from hypothesis import example, given, strategies as st

from repro.sim.engine import Engine
from repro.sim.events import AllOf, Delay, Future
from repro.utils.errors import DeadlockError, SimulationError


class TestScheduling:
    def test_events_run_in_time_order(self):
        eng = Engine()
        order = []
        eng.schedule(2.0, lambda: order.append("b"))
        eng.schedule(1.0, lambda: order.append("a"))
        eng.schedule(3.0, lambda: order.append("c"))
        eng.run()
        assert order == ["a", "b", "c"]

    def test_simultaneous_events_run_in_creation_order(self):
        eng = Engine()
        order = []
        for i in range(5):
            eng.schedule(1.0, lambda i=i: order.append(i))
        eng.run()
        assert order == [0, 1, 2, 3, 4]

    def test_now_advances(self):
        eng = Engine()
        seen = []
        eng.schedule(1.5, lambda: seen.append(eng.now))
        eng.run()
        assert seen == [1.5]
        assert eng.now == 1.5

    def test_negative_delay_rejected(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            eng.schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self):
        eng = Engine()
        eng.schedule(5.0, lambda: eng.schedule_at(1.0, lambda: None))
        with pytest.raises(SimulationError):
            eng.run()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_times_rejected(self, bad):
        # nan < 0 is False: it used to be queued, ran between 1.0 and
        # 0.5 and took the clock backwards; inf is the sharded world's
        # "drained" sentinel.
        eng = Engine()
        eng.schedule(1.0, lambda: None)
        for call in (
            lambda: eng.schedule(bad, lambda: None),
            lambda: eng.schedule_at(bad, lambda: None),
            lambda: eng.schedule_stream([0.5, bad], [lambda: None] * 2),
        ):
            with pytest.raises(SimulationError, match=repr(bad)):
                call()
        eng.schedule(0.5, lambda: None)
        assert eng.pending_events == 2
        assert eng.run() == 1.0

    def test_process_yielding_nan_is_rejected(self):
        eng = Engine()

        def proc():
            yield float("nan")

        eng.spawn(proc())
        with pytest.raises(SimulationError, match="nan"):
            eng.run()

    def test_cancelled_events_are_skipped(self):
        eng = Engine()
        fired = []
        ev = eng.schedule(1.0, lambda: fired.append("cancelled"))
        eng.schedule(2.0, lambda: fired.append("kept"))
        ev.cancel()
        eng.run()
        assert fired == ["kept"]

    def test_run_until_stops_at_time(self):
        eng = Engine()
        fired = []
        eng.schedule(1.0, lambda: fired.append(1))
        eng.schedule(10.0, lambda: fired.append(10))
        eng.run(until=5.0)
        assert fired == [1]
        assert eng.now == 5.0
        eng.run()
        assert fired == [1, 10]

    def test_run_rejects_time_running_backwards(self):
        # A clock that somehow drifted ahead of the queue must fail
        # loudly instead of silently rewinding.
        eng = Engine()
        eng.schedule(1.0, lambda: None)
        eng.now = 5.0  # simulate external clock drift / corruption
        with pytest.raises(SimulationError, match="backwards"):
            eng.run()
        assert eng.now == 5.0  # the guard fired before rewinding
        assert eng.pending_events == 1  # and left the event queued

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
    def test_events_never_run_out_of_order(self, delays):
        eng = Engine()
        times = []
        for d in delays:
            eng.schedule(d, lambda: times.append(eng.now))
        eng.run()
        assert times == sorted(times)
        assert len(times) == len(delays)


class TestScheduleStream:
    """``schedule_stream`` runs a batch exactly as the ``schedule_at``
    loop would, from one heap entry."""

    @given(
        st.lists(st.floats(min_value=0.0, max_value=10.0), max_size=20),
        st.lists(st.floats(min_value=0.0, max_value=10.0), max_size=5),
    )
    def test_same_order_as_the_loop(self, times, before):
        def run(stream):
            eng = Engine()
            fired = []
            for k, t in enumerate(before):  # an arbitrary seq / min time
                eng.schedule_at(t, lambda k=k: fired.append(("before", k, eng.now)))
            fns = [lambda k=k: fired.append(("batch", k, eng.now)) for k in range(len(times))]
            if stream:
                eng.schedule_stream(times, fns)
            else:
                for t, fn in zip(times, fns):
                    eng.schedule_at(t, fn)
            eng.schedule(0.0, lambda: fired.append(("after", eng.now)))
            state = (eng._seq, eng.next_event_time, eng.pending_events)
            eng.run()
            return state, fired, eng.now, eng.pending_events

        assert run(stream=True) == run(stream=False)

    def test_one_heap_entry_per_batch(self):
        eng = Engine()
        eng.schedule_stream([3.0, 1.0, 1.0, 2.0], [lambda: None] * 4)
        eng.schedule_stream([0.5, 0.5], [lambda: None] * 2)
        assert len(eng._queue) == 2
        assert eng.pending_events == 6
        assert eng.next_event_time == 0.5

    def test_horizon_stops_a_stream_midway(self):
        eng = Engine()
        fired = []
        eng.schedule_stream(
            [2.0, 1.0, 3.0, 1.0], [partial(fired.append, k) for k in range(4)]
        )
        eng.run(until=1.5)
        assert fired == [1, 3]  # equal times keep batch order
        assert (eng.pending_events, eng.next_event_time) == (2, 2.0)
        eng.run(until=2.0)
        assert (fired, eng.pending_events, eng.next_event_time) == ([1, 3, 0], 1, 3.0)
        eng.run()
        assert fired == [1, 3, 0, 2]
        assert (eng.pending_events, eng.next_event_time) == (0, inf)

    def test_past_time_raises_and_leaks_nothing(self):
        eng = Engine()
        eng.schedule(2.0, lambda: eng.schedule_stream([3.0, 1.0, 4.0], [lambda: None] * 3))
        with pytest.raises(SimulationError, match="t=1.0"):
            eng.run()
        # Neither the valid 3.0 before the bad entry nor a sequence
        # number was kept: the next event is numbered as if never called.
        assert eng.pending_events == 0
        assert eng.schedule_at(5.0, lambda: None).seq == 2

    def test_single_events_stay_cancellable_beside_a_stream(self):
        eng = Engine()
        fired = []
        ev = eng.schedule_at(1.5, lambda: fired.append("cancelled"))
        assert eng.schedule_stream(
            [1.0, 2.0], [lambda: fired.append(1), lambda: fired.append(2)]
        ) is None  # no handle: a stream is not cancellable
        ev.cancel()
        assert eng.pending_events == 2
        eng.run()
        assert fired == [1, 2]

    def test_waiting_on_the_last_element_is_no_deadlock(self):
        eng = Engine()
        futs = [Future() for _ in range(3)]

        def waiter():
            return (yield AllOf(futs))

        proc = eng.spawn(waiter())
        eng.schedule_stream([3.0, 1.0, 2.0], [partial(f.resolve, k) for k, f in enumerate(futs)])
        assert eng.run() == 3.0
        assert proc.done.value == [0, 1, 2]


class TestProcesses:
    def test_process_result_resolves_done(self):
        eng = Engine()

        def prog():
            yield Delay(1.0)
            return "result"

        p = eng.spawn(prog())
        eng.run()
        assert p.finished
        assert p.done.value == "result"

    def test_yield_plain_number_is_delay(self):
        eng = Engine()

        def prog():
            yield 2.5
            return eng.now

        p = eng.spawn(prog())
        eng.run()
        assert p.done.value == 2.5

    def test_yield_future_returns_value(self):
        eng = Engine()
        f = Future()
        eng.schedule(3.0, lambda: f.resolve("hello"))

        def prog():
            v = yield f
            return (v, eng.now)

        p = eng.spawn(prog())
        eng.run()
        assert p.done.value == ("hello", 3.0)

    def test_yield_resolved_future_resumes_immediately(self):
        eng = Engine()
        f = Future()
        f.resolve(9)

        def prog():
            v = yield f
            return v

        p = eng.spawn(prog())
        eng.run()
        assert p.done.value == 9
        assert eng.now == 0.0

    def test_allof_collects_values_in_order(self):
        eng = Engine()
        f1, f2 = Future(), Future()
        eng.schedule(2.0, lambda: f1.resolve("late"))
        eng.schedule(1.0, lambda: f2.resolve("early"))

        def prog():
            vals = yield AllOf([f1, f2])
            return vals

        p = eng.spawn(prog())
        eng.run()
        assert p.done.value == ["late", "early"]

    def test_allof_empty_resumes(self):
        eng = Engine()

        def prog():
            vals = yield AllOf([])
            return vals

        p = eng.spawn(prog())
        eng.run()
        assert p.done.value == []

    def test_child_process_composition(self):
        eng = Engine()

        def child():
            yield Delay(1.0)
            return 21

        def parent():
            c = eng.spawn(child(), name="child")
            v = yield c.done
            return v * 2

        p = eng.spawn(parent(), name="parent")
        eng.run()
        assert p.done.value == 42

    def test_deadlock_detected(self):
        eng = Engine()

        def prog():
            yield Future(name="never")

        eng.spawn(prog(), name="stuck")
        with pytest.raises(DeadlockError, match="stuck"):
            eng.run()

    def test_unsupported_yield_raises(self):
        eng = Engine()

        def prog():
            yield "nonsense"

        eng.spawn(prog())
        with pytest.raises(SimulationError, match="unsupported"):
            eng.run()

    def test_many_processes_interleave_deterministically(self):
        def run_once():
            eng = Engine()
            order = []

            def prog(i):
                yield Delay(0.1 * (i % 3))
                order.append(i)
                yield Delay(0.05)
                order.append(i + 100)

            for i in range(10):
                eng.spawn(prog(i), name=f"rank{i}")
            eng.run()
            return order

        assert run_once() == run_once()


class TestCancellationAccounting:
    """pending_events is a live counter; cancellations compact the heap."""

    def test_pending_events_tracks_cancellations(self):
        eng = Engine()
        events = [eng.schedule(float(i + 1), lambda: None) for i in range(10)]
        assert eng.pending_events == 10
        events[3].cancel()
        events[7].cancel()
        assert eng.pending_events == 8
        eng.run()
        assert eng.pending_events == 0

    def test_cancel_is_idempotent(self):
        eng = Engine()
        ev = eng.schedule(1.0, lambda: None)
        eng.schedule(2.0, lambda: None)
        ev.cancel()
        ev.cancel()
        ev.cancel()
        assert eng.pending_events == 1

    def test_cancelling_an_executed_event_is_a_no_op(self):
        eng = Engine()
        ran = eng.schedule(0.5, lambda: None)
        later = [eng.schedule(2.0, lambda: None) for _ in range(10)]
        eng.run(until=1.0)
        assert ran.cancelled  # executed: its callback is gone
        ran.cancel()
        assert eng.pending_events == 10
        later[0].cancel()
        assert eng.pending_events == 9

    def test_heap_compacts_when_cancellations_dominate(self):
        eng = Engine()
        events = [eng.schedule(float(i + 1), lambda: None) for i in range(100)]
        for ev in events[:60]:
            ev.cancel()
        # Crossing the half-cancelled mark compacts the queue, so dead
        # entries never dominate: at most half the remaining entries are
        # cancelled, and the live count stays exact.
        assert eng.pending_events == 40
        queued = eng._queue
        assert len(queued) < 100
        dead = sum(1 for e in queued if e.cancelled)
        assert dead * 2 <= len(queued)
        assert len(queued) - dead == 40

    @given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=50.0), st.booleans()),
                    min_size=0, max_size=200))
    def test_random_cancel_patterns(self, spec):
        eng = Engine()
        fired = []
        events = [
            eng.schedule(delay, lambda i=i: fired.append(i))
            for i, (delay, _cancel) in enumerate(spec)
        ]
        cancelled = {i for i, (_d, c) in enumerate(spec) if c}
        for i in cancelled:
            events[i].cancel()
        assert eng.pending_events == len(spec) - len(cancelled)
        eng.run()
        assert eng.pending_events == 0
        assert sorted(fired) == [i for i in range(len(spec)) if i not in cancelled]


class TestDeterminism:
    """Execution order is a pure function of the schedule calls.

    The engine keeps a heap of events and a ready deque for
    same-timestamp resumes; both must merge into one global
    (time, priority, seq) order, identically on every run.
    """

    @staticmethod
    def _workload(eng):
        trace = []

        def mark(tag):
            return lambda: trace.append((tag, eng.now))

        events = [
            eng.schedule(float((i * 37) % 11) * 0.5, mark(i)) for i in range(200)
        ]
        for ev in events[::3]:
            ev.cancel()

        def chain(depth):
            trace.append(("chain", depth, eng.now))
            if depth:
                eng.schedule(0.0, lambda: chain(depth - 1))

        eng.schedule(2.25, lambda: chain(3))
        eng.run()
        return trace

    def test_run_twice_is_identical(self):
        assert self._workload(Engine()) == self._workload(Engine())

    def test_future_resume_interleaves_by_creation_order(self):
        """A process resumed at time t slots into the same-timestamp
        order exactly where a zero-delay schedule issued at resolution
        time would: after events created before the resolution, before
        events created after it."""
        eng = Engine()
        trace = []
        fut = Future()

        def waiter():
            yield fut
            trace.append("resumed")
            eng.schedule(0.0, lambda: trace.append("after-resume"))

        eng.spawn(waiter())

        def resolver():
            trace.append("resolve")
            fut.resolve(None)  # resume enqueued here: seq between peers
            eng.schedule(0.0, lambda: trace.append("post-resolve-event"))

        eng.schedule(1.0, resolver)
        eng.schedule(1.0, lambda: trace.append("pre-scheduled-peer"))
        eng.run()
        assert trace == [
            "resolve",
            "pre-scheduled-peer",
            "resumed",
            "post-resolve-event",
            "after-resume",
        ]


_DELAYS = st.sampled_from([0.0, 0.5, 1.0, 2.0])
_OPS = st.one_of(
    st.tuples(st.just("schedule"), _DELAYS, st.integers(-1, 1)),
    st.tuples(st.just("at"), _DELAYS, st.integers(-1, 1)),
    st.tuples(st.just("stream"), st.lists(_DELAYS, max_size=4)),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
    st.tuples(st.just("wait"), st.sampled_from([None, 0.0, 0.5])),
    st.tuples(st.just("resolve"), st.integers(0, 63)),
)


class _OrderOracle:
    """Drives an engine from a tape of operations and keeps a
    brute-force model of what it must hold: every queued event and
    pending resume, keyed ``(time, priority, seq)``, with ``seq``
    counted here, independently of the engine.

    Each executed callback or process step consumes the next tape
    operation, so schedules, cancellations and resumes interleave with
    execution.  The reference order is the minimum live key at every
    step.
    """

    def __init__(self, tape):
        self.eng = Engine()
        self.tape = list(tape)
        self.live = {}  # seq -> key: queued events and pending resumes
        # seq -> Event, for every event ever queued: the tape may cancel
        # one that already ran (a no-op) or is running right now.
        self.handles = {}
        self.waiters = []  # [future, resume key or "parked" or None]
        self.seq = 0
        self.until = inf
        self.ran, self.expected = [], []

    def _push(self, time, priority=0):
        self.seq += 1
        key = (time, priority, self.seq)
        self.live[key[2]] = key
        return key

    def _ran(self, key):
        assert self.eng.now == key[0] <= self.until
        self.expected.append(min(self.live.values()))
        self.ran.append(key)
        del self.live[key[2]]
        self.check()  # mid-run, mid-stream: the engine's counts are live
        if self.tape:
            self.apply(self.tape.pop(0))

    def _queued(self, key, ev):
        assert (ev.time, ev.priority, ev.seq) == key
        self.handles[key[2]] = ev

    def _waiter(self, cell, start, then):
        self._ran(start)
        cell[1] = self._push(self.eng.now) if cell[0].done else "parked"
        yield cell[0]
        self._ran(cell[1])
        if then is not None:
            key = self._push(self.eng.now + then)
            yield Delay(then)
            self._ran(key)

    def apply(self, op):
        eng, kind = self.eng, op[0]
        if kind == "schedule":
            key = self._push(eng.now + op[1], op[2])
            self._queued(key, eng.schedule(op[1], partial(self._ran, key), op[2]))
        elif kind == "at":
            key = self._push(eng.now + op[1], op[2])
            self._queued(key, eng.schedule_at(key[0], partial(self._ran, key), op[2]))
        elif kind == "stream":  # no handles: streams are not cancellable
            keys = [self._push(eng.now + d) for d in op[1]]
            eng.schedule_stream([k[0] for k in keys], [partial(self._ran, k) for k in keys])
        elif kind == "cancel":
            if self.handles:
                ev = list(self.handles.values())[op[1] % len(self.handles)]
                ev.cancel()  # no-op if it was cancelled before or has run
                self.live.pop(ev.seq, None)
        elif kind == "wait":
            cell = [Future(), None]
            self.waiters.append(cell)
            start = self._push(eng.now)
            eng.spawn(self._waiter(cell, start, op[1]))
        else:  # resolve
            pending = [c for c in self.waiters if not c[0].done]
            if pending:
                cell = pending[op[1] % len(pending)]
                if cell[1] == "parked":
                    cell[1] = self._push(eng.now)
                cell[0].resolve(None)

    def window(self, until):
        self.until = until
        self.eng.run(until=until)
        self.check()

    def check(self):
        assert self.eng.next_event_time == min(
            (k[0] for k in self.live.values()), default=inf
        )
        assert self.eng.pending_events == len(self.live)


class TestOrderOracle:
    """The engine executes in exactly the order of a brute-force
    reference: at every step, the least live ``(time, priority, seq)``
    key among queued events, stream elements and pending resumes,
    through schedules, streams, cancellations, zero-delay resumes and
    ``run(until=...)`` windows as the sharded world drives them.  The
    engine's ``pending_events`` and ``next_event_time`` are checked
    against the reference after every executed step, mid-stream
    included."""

    @given(
        setup=st.lists(_OPS, max_size=8),
        tape=st.lists(_OPS, max_size=40),
        windows=st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5]), max_size=5),
    )
    @example(  # cancelling the earliest event moves next_event_time on
        setup=[("schedule", 1.0, 0), ("schedule", 2.0, 0), ("schedule", 3.0, 0),
               ("cancel", 0)],
        tape=[],
        windows=[],
    )
    @example(  # cancelling the event that ran leaves ten pending, not nine
        setup=[("schedule", 0.5, 0)] + [("schedule", 2.0, 0)] * 10,
        tape=[("cancel", 0)],
        windows=[1.0],
    )
    @example(  # streams out of time order, with ties and a time equal to
        # now, issued before and during the run beside ready resumes, and
        # cut mid-way by two horizons
        setup=[("stream", [2.0, 0.0, 1.0, 0.0]), ("wait", 0.5), ("stream", [1.0, 1.0])],
        tape=[("stream", [0.0, 1.0, 0.5, 0.5]), ("resolve", 0), ("schedule", 0.0, -1),
              ("stream", [0.5]), ("cancel", 0), ("wait", None), ("resolve", 1)],
        windows=[0.5, 1.0],
    )
    def test_order_matches_brute_force_reference(self, setup, tape, windows):
        oracle = _OrderOracle(tape)
        for op in setup:
            oracle.apply(op)
        oracle.check()
        until = 0.0
        for w in windows:
            until += w
            oracle.window(until)
        oracle.window(1e6)
        assert oracle.ran == oracle.expected
        assert not oracle.live
