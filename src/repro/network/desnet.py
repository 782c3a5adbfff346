"""Event-driven network transport for the simulated MPI.

Each compute node has a serialized injection port and ejection port
(one message at a time, matching a single torus DMA engine).  A
message's timeline is the port law, stated once as
:meth:`DESNetwork.inject` and :meth:`DESNetwork.eject`::

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

import numpy as np

from repro.machine.mapping import RankMapping
from repro.network.costs import LinkCostModel
from repro.network.topology import TorusTopology
from repro.obs.tracer import CAT_COMM
from repro.sim.engine import Engine
from repro.sim.events import Future
from repro.utils.errors import CommunicationError
from repro.utils.validation import check_non_negative


class DESNetwork:
    """Torus transport bound to a DES engine and a rank mapping.

    :meth:`transfer_then` (one message) and :meth:`transfer_many_then`
    (one rank's batch, vectorized) price messages and schedule the
    caller's delivery callables — one engine event per message (a
    batch's as one engine stream: one heap entry, 16 bytes per
    message) and nothing else allocated.
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
        self._inject_free = np.zeros(topology.num_nodes, dtype=np.float64)
        self._eject_free = np.zeros(topology.num_nodes, dtype=np.float64)
        # Optional FaultInjector; consulted only when its network
        # features (link windows, wire drops) are active.
        self.fault = None
        # Instrumentation for tests and reports.
        self.messages_sent = 0
        self.bytes_sent = 0
        # dst_rank -> "msg->{dst_rank}": traced message spans share one
        # name string per destination.
        self._msg_names: dict[int, str] = {}

    # -- the port law: written once, as its two halves --------------------

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
        hops = int(self.topology.hop_row(src_node)[dst_node])
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

        Under a fault injector whose network features are on, link
        windows divide the wire bandwidth, and a drop decision makes
        the delivery event call ``fn(fault.DROPPED)`` at what would
        have been delivery time — the sender's reliability layer sees
        the loss only when the timeout/ack would have fired, as on a
        real wire.  Without one the path pays a single predicate.
        """
        if nbytes < 0:
            raise CommunicationError(f"negative message size {nbytes}")
        now = self.engine.now
        node_of = self.mapping.node_of
        src_node = node_of(src_rank)
        dst_node = node_of(dst_rank)
        self.messages_sent += 1
        self.bytes_sent += int(nbytes)
        factor = 1.0
        fault = self.fault
        if fault is not None and fault.net_active:
            if fault.msg_faults and fault.drop_decision():
                fn = partial(fn, fault.DROPPED)
            if fault.has_links:
                factor = fault.link_factor(src_node, dst_node, now)

        if src_node == dst_node:
            hops = 0
            deliver = now + self.link.sw_overhead_s + self.recv_overhead_s
        else:
            _done, arrive, wire, hops = self.inject(src_node, dst_node, nbytes, now, factor)
            deliver = self.eject(dst_node, arrive - wire, wire)
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            self._trace(tracer, src_rank, dst_rank, src_node, dst_node,
                        nbytes, hops, now, deliver)
        self.engine.schedule_at(deliver, fn)

    def transfer_many_then(
        self, src_rank: int, requests: list[tuple[int, int]], fns
    ) -> None:
        """Start many transfers from one rank now, one per ``(dst_rank,
        nbytes)`` request, in request order; ``fns[k]()`` runs when
        request ``k`` is delivered.

        Semantically — and bitwise, in delivered times, byte/message
        counters, and trace spans — identical to calling
        :meth:`transfer_then` once per request, but the
        injection/ejection timelines, hop counts, and bandwidth curve
        are evaluated vectorized in NumPy.  The injection chain
        ``free[k] = (...(start + busy[0]) + busy[1]...) + busy[k]`` is a
        ``cumsum`` seeded with the port's current free time, which
        reproduces the sequential left-to-right float additions exactly.
        """
        n = len(requests)
        if n == 0:
            return
        fault = self.fault
        if n == 1 or (fault is not None and fault.net_active):
            # Nothing to vectorize, or per-message fault decisions that
            # must happen in request order: take the scalar path, so the
            # counting RNG sees the same draw sequence as individual sends.
            for (d, b), fn in zip(requests, fns):
                self.transfer_then(src_rank, d, b, fn)
            return
        now = self.engine.now
        src_node = self.mapping.node_of(src_rank)
        dst_ranks, nb = np.array(requests, dtype=np.int64).T
        if nb.min() < 0:
            raise CommunicationError(f"negative message size {int(nb.min())}")
        dst_nodes = self.mapping.node_of(dst_ranks)
        self.messages_sent += n
        self.bytes_sent += int(nb.sum())

        link = self.link
        deliver = np.empty(n, dtype=np.float64)
        hops_all = np.zeros(n, dtype=np.int64)
        local = dst_nodes == src_node
        if local.any():
            # Same-node messages skip the wire and both ports.
            deliver[local] = now + link.sw_overhead_s + self.recv_overhead_s
        idx = np.flatnonzero(~local)
        if idx.size:
            dn = dst_nodes[idx]
            wire = link.wire_s(nb[idx])
            busy = link.sw_overhead_s + wire
            start0 = max(now, self._inject_free[src_node])
            free = np.cumsum(np.concatenate(([start0], busy)))[1:]
            self._inject_free[src_node] = free[-1]
            hops = self.topology.hop_row(src_node)[dn].astype(np.int64)
            hops_all[idx] = hops
            arrive = free + hops * link.hop_latency_s
            ready = arrive - wire
            eject_busy = self.recv_overhead_s + wire
            eject_free = self._eject_free
            if len(set(dn.tolist())) == dn.size:
                # Distinct receivers: no intra-batch ejector chaining.
                d = np.maximum(ready, eject_free[dn]) + eject_busy
                eject_free[dn] = d
            else:
                # Repeated receivers serialize on the ejector in order.
                d = np.empty(idx.size, dtype=np.float64)
                for k in range(idx.size):
                    node = dn[k]
                    busy_until = eject_free[node]
                    r = ready[k]
                    d[k] = t = (r if r > busy_until else busy_until) + eject_busy[k]
                    eject_free[node] = t
            deliver[idx] = d

        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            for dst_rank, dst_node, nbytes, hops, t1 in zip(
                dst_ranks.tolist(), dst_nodes.tolist(), nb.tolist(),
                hops_all.tolist(), deliver.tolist(),
            ):
                self._trace(tracer, src_rank, dst_rank, src_node, dst_node,
                            nbytes, hops, now, t1)
        self.engine.schedule_stream(deliver, fns)

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
