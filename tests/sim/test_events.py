"""Unit tests for the DES primitives."""

import pytest

from repro.sim.events import AllOf, Delay, Event, Future
from repro.utils.errors import SimulationError


class TestEvent:
    def test_ordering_by_time(self):
        a = Event(1.0, 0, 1, lambda: None)
        b = Event(2.0, 0, 2, lambda: None)
        assert a < b

    def test_ordering_by_priority_at_same_time(self):
        a = Event(1.0, 0, 2, lambda: None)
        b = Event(1.0, 1, 1, lambda: None)
        assert a < b

    def test_ordering_by_seq_breaks_ties(self):
        a = Event(1.0, 0, 1, lambda: None)
        b = Event(1.0, 0, 2, lambda: None)
        assert a < b

    def test_cancel_marks_event(self):
        e = Event(1.0, 0, 1, lambda: None)
        assert not e.cancelled
        e.cancel()
        assert e.cancelled


class TestFuture:
    def test_resolve_sets_value(self):
        f = Future()
        f.resolve(42)
        assert f.done and f.value == 42

    def test_double_resolve_raises(self):
        f = Future()
        f.resolve(1)
        with pytest.raises(SimulationError, match="resolved twice"):
            f.resolve(2)

    def test_callback_fires_on_resolve(self):
        f = Future()
        got = []
        f.add_done_callback(got.append)
        assert got == []
        f.resolve("x")
        assert got == ["x"]

    def test_callback_fires_immediately_when_done(self):
        f = Future()
        f.resolve(7)
        got = []
        f.add_done_callback(got.append)
        assert got == [7]

    def test_callbacks_fire_in_registration_order(self):
        f = Future()
        order = []
        f.add_done_callback(lambda _v: order.append(1))
        f.add_done_callback(lambda _v: order.append(2))
        f.resolve(None)
        assert order == [1, 2]


    def test_callback_list_is_allocated_by_the_first_subscriber(self):
        f = Future()
        assert f._callbacks is None
        f.resolve(1)
        assert f._callbacks is None
        seen = []
        f.add_done_callback(seen.append)  # already done: fires, stores nothing
        assert seen == [1] and f._callbacks is None

    def test_subclasses_register_for_dispatch(self):
        class Ticket(Future):
            __slots__ = ()

        assert Ticket in Future.subclasses
        from repro.sim.engine import Engine

        eng = Engine()
        ticket = Ticket()

        def waiter():
            return (yield ticket)

        proc = eng.spawn(waiter())
        eng.schedule(1.0, lambda: ticket.resolve("go"))
        eng.run()
        assert proc.done.value == "go"
        Future.subclasses.discard(Ticket)


class TestDelay:
    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError, match="negative"):
            Delay(-0.5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_delay_rejected(self, bad):
        with pytest.raises(SimulationError, match=repr(bad)):
            Delay(bad)

    def test_zero_delay_allowed(self):
        assert Delay(0.0).seconds == 0.0


class TestAllOf:
    def test_requires_futures(self):
        with pytest.raises(SimulationError, match="expects Futures"):
            AllOf([Future(), 3])  # type: ignore[list-item]

    def test_holds_futures_in_order(self):
        futures = [Future(name=str(i)) for i in range(3)]
        group = AllOf(futures)
        assert group.futures == futures
