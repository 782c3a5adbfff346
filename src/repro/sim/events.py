"""Event-queue primitives: events, futures, and waitable combinators."""

from __future__ import annotations

from math import inf
from typing import Any, Callable, Iterable

from repro.utils.errors import SimulationError


class Event(list):
    """A callback scheduled at a simulated time.

    The event *is* its own queue entry: a 4-element list
    ``[time, priority, seq, fn]``.  That single object serves as both
    the user-facing cancellation handle and the engine's heap entry —
    list comparison is element-wise at C speed, so the heap's sifts
    never call back into Python, and scheduling allocates exactly one
    object.  ``seq`` is a creation counter that makes ordering
    deterministic for simultaneous events (it is unique per engine, so
    comparison never reaches the non-orderable ``fn`` element).

    Cancellation nulls the ``fn`` element (the engine skips fn-less
    entries on pop), so a cancelled event holds no reference to its
    callback and the queue never has to search for it.  The engine nulls
    it too when it executes the event, so :attr:`cancelled` reads true
    once the event has run, and cancelling it then is a no-op.
    """

    __slots__ = ("on_cancel",)

    def __init__(self, time: float, priority: int = 0, seq: int = 0,
                 fn: Callable[[], None] | None = None):
        list.__init__(self, (time, priority, seq, fn))
        # Set by the owning engine so it can keep a live count of
        # cancelled-but-queued events (and compact its queue).  The
        # engine builds events through ``list.__init__`` directly and
        # always assigns this; only this compat constructor defaults it.
        self.on_cancel: Callable[[], None] | None = None

    @property
    def time(self) -> float:
        return self[0]

    @property
    def priority(self) -> int:
        return self[1]

    @property
    def seq(self) -> int:
        return self[2]

    @property
    def fn(self) -> Callable[[], None] | None:
        return self[3]

    @property
    def cancelled(self) -> bool:
        """True once the event can no longer fire: cancelled or executed."""
        return self[3] is None

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped."""
        if self[3] is not None:
            self[3] = None
            if self.on_cancel is not None:
                self.on_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self[0]:.9f} prio={self[1]} seq={self[2]}{state}>"


class Future:
    """A one-shot container for a value produced later in simulated time.

    Processes ``yield`` a future to suspend until it is resolved.  A
    future may only be resolved once; resolving twice is a simulation
    bug and raises :class:`SimulationError`.

    The callback list may also hold :class:`~repro.sim.engine.Process`
    objects directly (a process is callable: calling it requeues it on
    its engine).  Mixing the two keeps one registration order, so a
    future with both plain callbacks and waiting processes fires them
    exactly in the order they subscribed.  The first subscriber
    allocates the list: most futures resolve before anyone waits.
    """

    __slots__ = ("done", "value", "_callbacks", "name")

    #: Every subclass, so :meth:`Process._dispatch` routes one by a set
    #: lookup on its exact class instead of an ``isinstance`` walk.
    subclasses: set[type] = set()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        Future.subclasses.add(cls)

    def __init__(self, name: str = ""):
        self.done = False
        self.value: Any = None
        self._callbacks: list[Callable[[Any], None]] | None = None
        self.name = name

    def resolve(self, value: Any = None) -> None:
        """Resolve the future and fire registered callbacks in order."""
        if self.done:
            raise SimulationError(f"future {self.name or id(self)} resolved twice")
        self.done = True
        self.value = value
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = None
            for cb in callbacks:
                cb(value)

    def add_done_callback(self, cb: Callable[[Any], None]) -> None:
        """Call ``cb(value)`` when resolved (immediately if already done)."""
        if self.done:
            cb(self.value)
        elif self._callbacks is None:
            self._callbacks = [cb]
        else:
            self._callbacks.append(cb)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = f"done value={self.value!r}" if self.done else "pending"
        return f"<Future {self.name} {state}>"


class Delay:
    """Suspend the yielding process for ``seconds`` of simulated time."""

    __slots__ = ("seconds",)

    def __init__(self, seconds: float):
        if not (0 <= seconds < inf):
            raise SimulationError(f"cannot delay by negative or non-finite time {seconds!r}")
        self.seconds = float(seconds)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Delay({self.seconds!r})"


class AllOf:
    """Suspend until every future in the collection resolves.

    The ``yield`` expression evaluates to the list of future values in
    the order given.  An empty collection resumes immediately.
    """

    __slots__ = ("futures",)

    def __init__(self, futures: Iterable[Future]):
        self.futures = list(futures)
        for f in self.futures:
            if not isinstance(f, Future):
                raise SimulationError(f"AllOf expects Futures, got {type(f).__name__}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        ndone = sum(1 for f in self.futures if f.done)
        return f"<AllOf {ndone}/{len(self.futures)} done>"
