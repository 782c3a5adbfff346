"""Event-driven network transport for the simulated MPI.

Each compute node has a serialized injection port and ejection port
(one message at a time, matching a single torus DMA engine).  A
message's timeline is the port law, stated as
:meth:`DESNetwork.inject` and :meth:`DESNetwork.eject` (the sharded
transport prices through them) and walked message by message, with
the same additions, by :meth:`DESNetwork.transfer_many_then`::

    wire    = LinkCostModel.wire_s(nbytes, link-window factor)
    start   = max(now, src node's injector free time)
    done    = start + (sw_overhead + wire)        # injector free again
    arrive  = done + hops * hop_latency
    ready   = arrive - wire                       # head reaches dst node
    deliver = max(ready, dst node's ejector free time) + (recv_overhead + wire)

Node ids come from :class:`~repro.machine.mapping.RankMapping`'s
rank -> node table.  Messages between ranks on the same node skip the
wire and pay only software overhead.  This transport captures endpoint
serialization and per-hop latency; phase-scale congestion (the Fig. 3/4
collapse) is the analytic model's job, at scales the DES does not run
at.
"""

from __future__ import annotations

from functools import partial

from repro.machine.mapping import RankMapping
from repro.network.costs import LinkCostModel
from repro.network.topology import TorusTopology
from repro.obs.tracer import CAT_COMM
from repro.sim.engine import Engine
from repro.sim.events import Future
from repro.utils.errors import CommunicationError, ConfigError
from repro.utils.validation import check_non_negative


class DESNetwork:
    """Torus transport bound to a DES engine and a rank mapping.

    :meth:`transfer_many_then` (one rank's batch) and
    :meth:`transfer_then` (a batch of one) price messages and schedule
    the caller's delivery callables — a batch as one engine stream (one
    heap entry, 16 bytes per message), a single message as one event.
    :meth:`transfer` / :meth:`transfer_many` are the Future-returning
    adapters over them.
    """

    def __init__(
        self,
        engine: Engine,
        topology: TorusTopology,
        mapping: RankMapping,
        link: LinkCostModel | None = None,
        recv_overhead_s: float = 1e-6,
        tracer=None,
    ):
        check_non_negative("recv_overhead_s", recv_overhead_s)
        self.engine = engine
        self.topology = topology
        self.mapping = mapping
        self.link = link or LinkCostModel()
        self.recv_overhead_s = recv_overhead_s
        self.tracer = tracer  # optional repro.obs.Tracer
        # Port free times, one Python float per node.
        self._inject_free = [0.0] * topology.num_nodes
        self._eject_free = [0.0] * topology.num_nodes
        # Optional FaultInjector; consulted only when its network
        # features (link windows, wire drops) are active.
        self.fault = None
        # Instrumentation for tests and reports.
        self.messages_sent = 0
        self.bytes_sent = 0
        # dst_rank -> "msg->{dst_rank}": traced message spans share one
        # name string per destination.
        self._msg_names: dict[int, str] = {}

    # -- the port law as its two halves (the sharded transport's pricing) --

    def inject(self, src_node: int, dst_node: int, nbytes: int, now: float,
               factor: float = 1.0):
        """Serialize one message through ``src_node``'s injection port.

        Returns ``(done, arrive, wire, hops)``: when the port is free
        again, when the tail reaches ``dst_node``, the wire occupancy
        and the hop count.  ``factor`` multiplies the link bandwidth (a
        fault plan's link windows; the message occupies both ports
        longer); ``bw * 1.0`` is exact, so the fault-free timeline does
        not depend on who passes it.  The ejection port serializes on
        the *head* of the message — callers pass ``arrive - wire`` to
        :meth:`eject` (``arrive`` itself is returned because
        ``(arrive - wire) + wire`` is not the same double).
        """
        link = self.link
        wire = link.wire_s(nbytes, factor) if nbytes else 0.0
        start = max(now, self._inject_free[src_node])
        self._inject_free[src_node] = done = start + (link.sw_overhead_s + wire)
        hops = self.topology.hop_row(src_node).item(dst_node)
        return done, done + hops * link.hop_latency_s, wire, hops

    def eject(self, dst_node: int, ready: float, wire: float) -> float:
        """Serialize one message through ``dst_node``'s ejection port;
        returns the delivery time.

        The reception port is bandwidth-limited too: a hot-spot
        receiver drains concurrent senders one at a time (Davis et
        al.'s hot-spot observation, in miniature).
        """
        deliver = max(ready, self._eject_free[dst_node]) + (self.recv_overhead_s + wire)
        self._eject_free[dst_node] = deliver
        return deliver

    def transfer_then(self, src_rank: int, dst_rank: int, nbytes: int, fn) -> None:
        """Start a transfer now; the engine calls ``fn()`` at delivery time.

        A batch of one: :meth:`transfer_many_then` is the pricing body.
        """
        self.transfer_many_then(src_rank, ((dst_rank, nbytes),), (fn,))

    def transfer_many_then(self, src_rank: int, requests, fns) -> None:
        """Start transfers from one rank now, one per ``(dst_rank,
        nbytes)`` request, in request order; ``fns[k]()`` runs when
        request ``k`` is delivered.

        The one pricing body: the port law walked message by message
        over Python floats, with the additions :meth:`inject` and
        :meth:`eject` make, so a batch is bitwise one
        :meth:`transfer_then` per request — delivered times, port
        timelines, counters and trace spans.  Same-node messages skip
        the wire and both ports.  Sizes and destination ranks are all
        validated before any port state changes.

        Under a fault injector whose network features are on, link
        windows divide the wire bandwidth, and a drop decision (drawn
        per message, in request order) makes the delivery event call
        ``fns[k](fault.DROPPED)`` at what would have been delivery time
        — the sender's reliability layer sees the loss only when the
        timeout/ack would have fired, as on a real wire.
        """
        if not requests:
            return
        mapping = self.mapping
        src_node = mapping.node_of(src_rank)
        dst_ranks, sizes = zip(*requests)
        if min(sizes) < 0:
            raise CommunicationError(f"negative message size {min(sizes)}")
        if min(dst_ranks) < 0 or max(dst_ranks) >= mapping.nprocs:
            raise ConfigError("rank out of range for partition")
        dst_nodes = list(map(mapping.node_list.__getitem__, dst_ranks))
        self.messages_sent += len(dst_nodes)
        self.bytes_sent += int(sum(sizes))

        now = self.engine.now
        link = self.link
        wire_s, sw, hop_s = link.wire_s, link.sw_overhead_s, link.hop_latency_s
        recv = self.recv_overhead_s
        local_t = now + sw + recv
        eject_free = self._eject_free
        free = self._inject_free[src_node]
        row = None  # the source's hop row, fetched on its first wire message
        fault = self.fault if self.fault is not None and self.fault.net_active else None
        tracer = self.tracer if self.tracer is not None and self.tracer.enabled else None
        times, dropped = [], []
        for dst_rank, nbytes, dst_node in zip(dst_ranks, sizes, dst_nodes):
            factor = 1.0
            if fault is not None:
                if fault.msg_faults and fault.drop_decision():
                    dropped.append(len(times))
                if fault.has_links and dst_node != src_node:
                    factor = fault.link_factor(src_node, dst_node, now)
            if dst_node == src_node:
                hops = 0
                t = local_t
            else:
                wire = wire_s(nbytes, factor) if nbytes else 0.0
                free = (free if free > now else now) + (sw + wire)
                if row is None:
                    row = self.topology.hop_row(src_node)
                hops = row.item(dst_node)
                ready = free + hops * hop_s - wire
                busy = eject_free[dst_node]
                eject_free[dst_node] = t = (ready if ready > busy else busy) + (recv + wire)
            times.append(t)
            if tracer is not None:
                self._trace(tracer, src_rank, dst_rank, src_node, dst_node,
                            nbytes, hops, now, t)
        self._inject_free[src_node] = free
        if dropped:
            fns = list(fns)
            for k in dropped:
                fns[k] = partial(fns[k], fault.DROPPED)
        self.engine.schedule_stream(times, fns)

    def _trace(self, tracer, src_rank, dst_rank, src_node, dst_node,
               nbytes, hops, t0, t1) -> None:
        """One per-message span on the sender's lane plus counters."""
        name = self._msg_names.get(dst_rank)
        if name is None:
            name = self._msg_names[dst_rank] = f"msg->{dst_rank}"
        tracer.span(
            src_rank, name, CAT_COMM, t0, t1,
            nbytes=int(nbytes), hops=hops, dst=dst_rank,
        )
        tracer.count("messages")
        tracer.count("bytes", int(nbytes))
        tracer.link(src_node, dst_node, int(nbytes))

    # -- the Future form: adapters over the one pricing body --------------

    def transfer(self, src_rank: int, dst_rank: int, nbytes: int) -> Future:
        """:meth:`transfer_then` with a future that resolves at delivery
        time (with the injector's ``DROPPED`` sentinel for a dropped
        packet)."""
        fut = Future(name="xfer")
        self.transfer_then(src_rank, dst_rank, nbytes, fut.resolve)
        return fut

    def transfer_many(
        self, src_rank: int, requests: list[tuple[int, int]]
    ) -> list[Future]:
        """:meth:`transfer_many_then` with one future per request."""
        futs = [Future(name="xfer") for _ in requests]
        self.transfer_many_then(src_rank, requests, [f.resolve for f in futs])
        return futs
