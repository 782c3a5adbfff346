"""The per-rank API handed to simulated MPI programs."""

from __future__ import annotations

from math import inf
from typing import Any, Generator, Iterable

from repro.sim.engine import Engine
from repro.sim.events import AllOf, Delay
from repro.utils.errors import CommunicationError
from repro.vmpi import collectives
from repro.vmpi.comm import ANY_SOURCE, ANY_TAG, MessageBoard, Request, Status


def _payload_of(value: Any) -> Any:
    """A receive's ``(payload, Status)`` value as its payload; a send's
    None (or anything else) as it is."""
    if isinstance(value, tuple) and len(value) == 2 and isinstance(value[1], Status):
        return value[0]
    return value


class RankContext(collectives.Communicator):
    """What a rank program sees: its rank, the world size, and verbs.

    All communication methods are generators — call them with
    ``yield from``.  Non-blocking variants (``isend``/``irecv``) are
    plain methods returning :class:`Request` handles.
    """

    def __init__(
        self,
        rank: int,
        size: int,
        board: MessageBoard,
        engine: Engine,
        tracer=None,
    ):
        self.rank = int(rank)
        self.size = int(size)
        self.board = board
        self.engine = engine
        self.tracer = tracer  # optional repro.obs.Tracer
        self.fault = None  # optional FaultInjector, set by MPIWorld.run
        self._coll_seq = 0
        self.compute_seconds = 0.0  # accumulated local compute time

    # -- time ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.engine.now

    def compute(self, seconds: float) -> Generator:
        """Occupy this rank's core for ``seconds`` of local computation."""
        if not (0 <= seconds < inf):
            raise CommunicationError(f"negative or non-finite compute time {seconds!r}")
        self.compute_seconds += seconds
        yield Delay(seconds)

    # -- point-to-point ----------------------------------------------------

    def isend(self, data: Any, dest: int, tag: int = 0) -> Request:
        """Non-blocking send (eager buffered)."""
        return self.board.post_send(self.rank, dest, tag, data)

    def isend_many(self, dest_payloads: Iterable, tag: int = 0) -> list[Request]:
        """Non-blocking sends of a whole batch of ``(dest, payload)``
        pairs, in order (any iterable, read once).

        Equivalent to ``[self.isend(p, d, tag) for d, p in dest_payloads]``
        but the wire timeline is computed vectorized (one NumPy pass for
        the batch), which is what makes thousand-piece compositing
        phases affordable to simulate.
        """
        return self.board.post_send_many(self.rank, dest_payloads, tag)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Non-blocking receive; the request yields (payload, Status)."""
        return self.board.post_recv(self.rank, source, tag)

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """Non-destructive check for an already-arrived envelope."""
        return self.board.probe(self.rank, source, tag)

    def send(self, data: Any, dest: int, tag: int = 0) -> Generator:
        """Blocking send: returns when the message is delivered."""
        yield self.board.post_send(self.rank, dest, tag, data)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Generator:
        """Blocking receive: returns the payload."""
        payload, _status = yield self.board.post_recv(self.rank, source, tag)
        return payload

    def recv_status(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Generator:
        """Blocking receive returning ``(payload, Status)``."""
        return (yield self.board.post_recv(self.rank, source, tag))

    def sendrecv(
        self, data: Any, dest: int, source: int = ANY_SOURCE, tag: int = 0
    ) -> Generator:
        """Simultaneous send and receive (deadlock-free pairwise swap)."""
        board = self.board
        req = board.post_send(self.rank, dest, tag, data)
        payload, _status = yield board.post_recv(self.rank, source, tag)
        yield req
        return payload

    def wait(self, req: Request) -> Generator:
        """Wait for one request; returns its payload for receives."""
        return _payload_of((yield req))

    def waitall(self, reqs: Iterable[Request]) -> Generator:
        """Wait for every request; returns the list of receive payloads."""
        return [v if v is None else _payload_of(v) for v in (yield AllOf(reqs))]

    # -- collectives: the rest are Communicator's; a group has no GI network

    def gi_barrier(self) -> Generator:
        """Hardware barrier on the global-interrupt network (no torus traffic)."""
        return (yield from collectives.traced(
            self, "gi_barrier", collectives.gi_barrier(self)))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RankContext {self.rank}/{self.size}>"
