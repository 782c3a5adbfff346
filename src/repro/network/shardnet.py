"""Partition-aware DES transport for the conservative-parallel backend.

A :class:`ShardNetwork` is a :class:`~repro.network.desnet.DESNetwork`
that knows which contiguous node block its engine shard owns.  Pricing
is the parent's port law — :meth:`~DESNetwork.inject` and
:meth:`~DESNetwork.eject`, nothing restated here; this module holds
only what a shard does differently.  It returns *times* instead of
delivery futures, because send completion and delivery are decoupled
across shards:

* **Sends complete at injection.**  In the parallel backend *every*
  send's request resolves when the message clears the source node's
  injection port (``inject``'s ``done``; eager/buffered semantics,
  locally computable) — waiting for remote delivery would need
  information from the future of another shard, destroying the
  lookahead.

* **Intra-shard messages** have both ports on this shard:
  ``inject`` then ``eject``, exactly the monolithic timeline, final
  at call time.

* **Cross-shard messages** are priced up to the wire: the source
  computes ``ready = arrive − wire`` (when the head of the message
  reaches the destination node, which is what the ejection port
  serializes on) and stages an outbox record.  The destination shard
  replays ``eject`` at ``ready`` via :meth:`commit_remote`.

Because shards partition *nodes*, a cross-shard message always crosses
at least one wire hop: its ``ready`` lags the send by at least
``sw_overhead + hop_latency`` — the lookahead
:mod:`repro.sim.parallel` windows are built from.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.machine.mapping import RankMapping
from repro.network.costs import LinkCostModel
from repro.network.desnet import DESNetwork
from repro.network.topology import TorusTopology
from repro.sim.engine import Engine


class ShardNetwork(DESNetwork):
    """Torus transport for one engine shard of a partitioned world."""

    def __init__(
        self,
        engine: Engine,
        topology: TorusTopology,
        mapping: RankMapping,
        link: LinkCostModel | None = None,
        recv_overhead_s: float = 1e-6,
        tracer=None,
        *,
        node_shard: np.ndarray,
        shard_id: int,
    ):
        super().__init__(engine, topology, mapping, link, recv_overhead_s, tracer)
        self.node_shard = node_shard  # node id -> owning shard id
        self.shard_id = int(shard_id)
        #: Cross-shard records staged during the current window; drained
        #: by the worker at each superstep boundary.  Payload encoding is
        #: the message board's job — the network stages timing only.
        self.outbox: list = []
        #: Delivery callback ``fn(dst_rank, src_rank, tag, nbytes,
        #: payload)`` installed by the owning ShardMessageBoard.
        self.deliver_remote = None

    # -- sending -------------------------------------------------------

    def send(self, src_rank: int, dst_rank: int, nbytes: int):
        """Price one send now; returns ``(local, done, t, wire)``.

        ``done`` is the injection-completion time (when the request
        resolves).  For an intra-shard message (``local`` True) ``t``
        is the final delivery time; for a cross-shard message it is
        the ejection-ready time the destination shard will chain on.
        Both endpoints are one read each of the rank -> node table
        (:meth:`RankMapping.node_of`).
        """
        now = self.engine.now
        node_of = self.mapping.node_of
        src_node = node_of(src_rank)
        dst_node = node_of(dst_rank)
        self.messages_sent += 1
        self.bytes_sent += int(nbytes)

        if src_node == dst_node:
            local, wire, hops = True, 0.0, 0
            done = now + self.link.sw_overhead_s
            t = span_end = done + self.recv_overhead_s
        else:
            factor = 1.0
            fault = self.fault
            if fault is not None and fault.has_links:
                factor = fault.link_factor(src_node, dst_node, now)
            done, arrive, wire, hops = self.inject(src_node, dst_node, nbytes, now, factor)
            local = bool(self.node_shard[dst_node] == self.shard_id)
            if local:
                t = span_end = self.eject(dst_node, arrive - wire, wire)
            else:
                # The sender cannot know the remote ejection queue; the
                # span covers send to arrival at the destination node.
                t, span_end = arrive - wire, arrive
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            self._trace(tracer, src_rank, dst_rank, src_node, dst_node,
                        nbytes, hops, now, span_end)
        return local, done, t, wire

    # -- receiving (destination shard, between windows) ----------------

    def commit_remote(
        self, dst_rank: int, src_rank: int, tag: int,
        ready: float, wire: float, nbytes: int, payload,
    ) -> None:
        """Schedule the ejection commit for one incoming record.

        Called between windows in canonical ``(ready, src_rank,
        src_seq)`` order — commit events at equal times then execute
        in that order (sequence numbers are assigned at scheduling),
        which is what makes the destination's ejection chain
        independent of the worker count.
        """
        now = self.engine.now
        if ready < now:
            # ``arrive - wire`` can round an ulp or two below the window
            # horizon this engine has already ratcheted to (the real-
            # arithmetic bound ready >= horizon holds, the IEEE one does
            # not).  Clamping is deterministic: every shard's clock sits
            # at the same window boundary when records are folded in,
            # for any worker count.
            ready = now
        self.engine.schedule_at(
            ready,
            partial(self._commit, dst_rank, src_rank, tag, ready, wire, nbytes, payload),
        )

    def _commit(self, dst_rank, src_rank, tag, ready, wire, nbytes, payload) -> None:
        deliver = self.eject(self.mapping.node_of(dst_rank), ready, wire)
        self.engine.schedule_at(
            deliver,
            partial(self.deliver_remote, dst_rank, src_rank, tag, nbytes, payload),
        )
