"""ShardNetwork timing laws and the inter-shard mailbox codec.

The parallel backend's transport must price intra-shard messages
exactly like the monolithic :class:`DESNetwork` (same injection /
ejection serialization), keep every cross-shard ``ready`` at least one
lookahead ahead of the send (the safe-window invariant), and replay
the destination's ejection chain deterministically.  The codec tests
pin the pickle-free record encoding round trip for every payload kind.
"""

import numpy as np
import pytest

from repro.fault.inject import FaultInjector
from repro.fault.plan import FaultPlan, LinkWindow
from repro.machine.mapping import RankMapping
from repro.machine.partition import Partition
from repro.network.desnet import DESNetwork
from repro.network.shardnet import ShardNetwork
from repro.network.topology import TorusTopology
from repro.obs.tracer import Tracer
from repro.sim.engine import Engine
from repro.sim import mailbox
from repro.vmpi.payload import VirtualPayload


def _machine(cores=64):
    part = Partition.for_cores(cores, 4)
    mapping = RankMapping(part, "XYZT")
    topo = TorusTopology(part.shape, torus=part.is_torus)
    return part, mapping, topo


def _single_shard_net(mapping, topo):
    eng = Engine()
    node_shard = np.zeros(topo.num_nodes, dtype=np.int64)
    return ShardNetwork(
        eng, topo, mapping, node_shard=node_shard, shard_id=0
    )


class TestIntraShardTiming:
    STEP = 2e-6  # simulated time between consecutive sends

    def _same_sequence_on_both(self, plan):
        """Drive one random send sequence, one send every ``STEP``,
        through a single-shard ShardNetwork and a DESNetwork."""
        part, mapping, topo = _machine()
        shard = _single_shard_net(mapping, topo)
        mono = DESNetwork(Engine(), topo, mapping)
        if plan is not None:
            shard.fault = FaultInjector(plan)
            mono.fault = FaultInjector(plan)
            assert mono.fault.net_active
        rng = np.random.default_rng(42)
        for i in range(400):
            src = int(rng.integers(0, part.nprocs))
            dst = int(rng.integers(0, part.nprocs))
            if src == dst:
                continue
            nbytes = int(rng.integers(0, 1 << 16))
            for net in (shard, mono):
                # Same clock on both engines; ``mono`` also runs the
                # delivery events it scheduled itself.
                net.engine.schedule_at(i * self.STEP, lambda: None)
                net.engine.run(until=i * self.STEP)
            local, _done, _deliver, _wire = shard.send(src, dst, nbytes)
            assert local
            mono.transfer(src, dst, nbytes)
        return shard, mono

    def test_matches_monolithic_network(self):
        """One shard owning every node prices sends exactly like the
        monolithic DESNetwork: same injection and ejection timelines —
        fault-free, and with both networks under link windows that are
        open over the middle of the send sequence only."""
        step = self.STEP
        windows = (
            LinkWindow(100 * step, 260 * step, 0.25),
            LinkWindow(180 * step, 300 * step, 0.5, src_node=3),
        )
        clean = None
        for plan in (None, FaultPlan(link_windows=windows)):
            shard, mono = self._same_sequence_on_both(plan)
            np.testing.assert_array_equal(shard._inject_free, mono._inject_free)
            np.testing.assert_array_equal(shard._eject_free, mono._eject_free)
            assert shard.messages_sent == mono.messages_sent
            assert shard.bytes_sent == mono.bytes_sent
            if plan is None:
                clean = list(mono._inject_free)
        # The windows did something: ports free later than without them.
        assert any(w > c for w, c in zip(mono._inject_free, clean))

    def test_same_node_delivery(self):
        part, mapping, topo = _machine()
        shard = _single_shard_net(mapping, topo)
        mate = next(
            r for r in range(1, part.nprocs)
            if int(mapping.node_of(r)) == int(mapping.node_of(0))
        )
        local, done, deliver, wire = shard.send(0, mate, 4096)
        assert local
        assert done == shard.link.sw_overhead_s
        assert deliver == done + shard.recv_overhead_s
        assert wire == 0.0


class TestCrossShardTiming:
    def _two_shards(self, cores=64):
        part, mapping, topo = _machine(cores)
        node_shard = np.zeros(topo.num_nodes, dtype=np.int64)
        node_shard[topo.num_nodes // 2:] = 1
        nets = [
            ShardNetwork(Engine(), topo, mapping, node_shard=node_shard, shard_id=s)
            for s in (0, 1)
        ]
        return part, mapping, topo, node_shard, nets

    def test_ready_respects_lookahead(self):
        """Every cross-shard ready is >= send time + lookahead (up to
        float rounding) — the invariant the safe windows rely on."""
        part, mapping, topo, node_shard, (src_net, _dst) = self._two_shards()
        lookahead = src_net.link.sw_overhead_s + src_net.link.hop_latency_s
        remote_ranks = [
            r for r in range(part.nprocs)
            if node_shard[int(mapping.node_of(r))] == 1
        ]
        rng = np.random.default_rng(7)
        for _ in range(100):
            dst = int(rng.choice(remote_ranks))
            nbytes = int(rng.integers(0, 1 << 14))
            local, done, ready, wire = src_net.send(0, dst, nbytes)
            assert not local
            # One ulp of slack: ready is computed as arrive - wire.
            assert ready >= np.nextafter(lookahead, 0.0)
            assert done <= ready + wire

    def test_cross_shard_span_ends_at_arrival(self):
        """The sender cannot see the remote ejection queue, so a traced
        cross-shard send's span runs to arrival at the destination node:
        injection done plus the hop latency, exactly."""
        part, mapping, topo, node_shard, _nets = self._two_shards()
        tracer = Tracer()
        net = ShardNetwork(
            Engine(), topo, mapping, tracer=tracer, node_shard=node_shard, shard_id=0
        )
        remote_ranks = [
            r for r in range(part.nprocs)
            if node_shard[int(mapping.node_of(r))] == 1
        ]
        rng = np.random.default_rng(3)
        for _ in range(50):
            dst = int(rng.choice(remote_ranks))
            local, done, _ready, _wire = net.send(0, dst, int(rng.integers(0, 1 << 14)))
            assert not local
            span = tracer.spans[-1]
            hops = int(topo.hop_row(int(mapping.node_of(0)))[int(mapping.node_of(dst))])
            assert span.args["hops"] == hops and span.args["dst"] == dst
            assert span.t0 == 0.0
            assert span.t1 == done + hops * net.link.hop_latency_s

    def test_commit_replays_ejection_chain(self):
        """Two records into one destination node serialize on the
        ejection port exactly like the monolithic law."""
        part, mapping, topo, node_shard, (_src, dst_net) = self._two_shards()
        dst_rank = next(
            r for r in range(part.nprocs)
            if node_shard[int(mapping.node_of(r))] == 1
        )
        delivered = []
        dst_net.deliver_remote = (
            lambda dr, sr, tag, nbytes, payload:
            delivered.append((dst_net.engine.now, dr, sr, tag))
        )
        wire = 1e-6
        ready = 5e-5
        dst_net.commit_remote(dst_rank, 0, 1, ready, wire, 512, None)
        dst_net.commit_remote(dst_rank, 1, 1, ready, wire, 512, None)
        dst_net.engine.run()
        eject_busy = dst_net.recv_overhead_s + wire
        assert delivered[0][0] == ready + eject_busy
        assert delivered[1][0] == ready + 2 * eject_busy
        assert [d[2] for d in delivered] == [0, 1]

    def test_commit_clamps_stale_ready(self):
        """A ready an ulp behind the shard clock (float rounding of
        arrive - wire) is clamped, not an error."""
        part, mapping, topo, node_shard, (_src, dst_net) = self._two_shards()
        dst_rank = next(
            r for r in range(part.nprocs)
            if node_shard[int(mapping.node_of(r))] == 1
        )
        dst_net.engine.schedule_at(1e-4, lambda: None)
        dst_net.engine.run()  # the event ratchets the clock to 1e-4
        delivered = []
        dst_net.deliver_remote = (
            lambda dr, sr, tag, nbytes, payload:
            delivered.append(dst_net.engine.now)
        )
        stale = np.nextafter(1e-4, 0.0)
        dst_net.commit_remote(dst_rank, 0, 1, stale, 0.0, 0, None)
        dst_net.engine.run()
        assert delivered == [1e-4 + dst_net.recv_overhead_s]


class TestMailboxCodec:
    @pytest.mark.parametrize(
        "payload",
        [
            None,
            b"raw bytes",
            b"",
            VirtualPayload(123456),
            VirtualPayload(64, label="strip"),
            np.arange(12, dtype=np.float32).reshape(3, 4),
            np.array(3.5),
            np.zeros(0, dtype=np.int16),
            {"fallback": [1, 2, (3, 4)]},
            ("tuple", 1),
        ],
    )
    def test_payload_roundtrip(self, payload):
        kind, blob = mailbox.encode_payload(payload)
        out = mailbox.decode_payload(kind, blob)
        if isinstance(payload, np.ndarray):
            assert out.dtype == payload.dtype
            np.testing.assert_array_equal(out, payload)
        else:
            assert out == payload
            assert type(out) is type(payload)

    def test_partial_image_roundtrip(self):
        from repro.render.image import PartialImage

        rgba = np.linspace(0, 1, 2 * 3 * 4, dtype=np.float32).reshape(3, 2, 4)
        img = PartialImage((5, 7, 2, 3), rgba, depth=2.25, samples=17)
        kind, blob = mailbox.encode_payload(img)
        assert kind == mailbox.K_PARTIAL
        out = mailbox.decode_payload(kind, blob)
        assert out.rect == img.rect
        assert out.depth == img.depth
        assert out.samples == img.samples
        np.testing.assert_array_equal(out.rgba, img.rgba)

    def test_ndarray_does_not_alias_source(self):
        a = np.arange(8)
        kind, blob = mailbox.encode_payload(a)
        out = mailbox.decode_payload(kind, blob)
        a[:] = -1
        np.testing.assert_array_equal(out, np.arange(8))
        assert out.flags.writeable

    def test_virtual_payload_avoids_pickle(self):
        kind, _blob = mailbox.encode_payload(VirtualPayload(1 << 20))
        assert kind == mailbox.K_VIRTUAL

    def test_records_roundtrip(self):
        recs = []
        for i, payload in enumerate(
            [None, VirtualPayload(4096), np.arange(3), b"x" * 100]
        ):
            kind, blob = mailbox.encode_payload(payload)
            recs.append(
                (i % 2, 10 + i, 20 + i, i, 7, 1.5e-5 * (i + 1), 2.5e-7 * i,
                 4096 + i, kind, blob)
            )
        out = mailbox.unpack_records(mailbox.pack_records(recs))
        assert out == recs

    def test_records_empty(self):
        assert mailbox.unpack_records(mailbox.pack_records([])) == []
