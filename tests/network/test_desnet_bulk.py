"""Bulk endpoint serialization: ``transfer_many`` vs the scalar path.

The bulk path exists purely for wall-clock speed at thousands of
ranks; its contract is that it is *bitwise* indistinguishable from
issuing the same requests one at a time — delivered times, byte and
message counters, port free times, and trace spans all identical.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fault.inject import FaultInjector
from repro.fault.plan import FaultPlan, LinkWindow
from repro.machine.mapping import RankMapping
from repro.machine.partition import Partition
from repro.network.costs import LinkCostModel
from repro.network.desnet import DESNetwork
from repro.network.topology import TorusTopology
from repro.obs.tracer import Tracer
from repro.sim.engine import Engine
from repro.utils.errors import CommunicationError, ConfigError


def make_net(nodes=32, ppn=2, order="XYZT", tracer=None):
    part = Partition(nodes, processes_per_node=ppn, shape=(4, 4, 2))
    eng = Engine()
    mapping = RankMapping(part, order)
    topo = TorusTopology(part.shape, torus=part.is_torus)
    return eng, DESNetwork(eng, topo, mapping, tracer=tracer)


#: A deliberately awkward fan-out from rank 0: a repeated destination
#: node (ejector chaining), a zero-byte message, and a same-node
#: destination (under TXYZ order with ppn=2, rank 1 shares node 0).
REQUESTS = [(9, 4096), (9, 8192), (17, 0), (33, 65536), (1, 1024), (50, 300)]


def drain_times(eng, futs):
    times = {}

    def stamp(k):
        return lambda _v: times.__setitem__(k, eng.now)

    for k, f in enumerate(futs):
        f.add_done_callback(stamp(k))
    eng.run()
    return [times[k] for k in range(len(futs))]


class TestBulkParity:
    def test_bitwise_identical_to_scalar_path(self):
        tr_a = Tracer()
        eng_a, net_a = make_net(order="TXYZ", tracer=tr_a)
        futs_a = [net_a.transfer(0, d, b) for d, b in REQUESTS]
        times_a = drain_times(eng_a, futs_a)

        tr_b = Tracer()
        eng_b, net_b = make_net(order="TXYZ", tracer=tr_b)
        futs_b = net_b.transfer_many(0, REQUESTS)
        times_b = drain_times(eng_b, futs_b)

        assert times_a == times_b  # == on floats: bitwise, not approx
        assert net_a.messages_sent == net_b.messages_sent == len(REQUESTS)
        assert net_a.bytes_sent == net_b.bytes_sent == sum(b for _d, b in REQUESTS)
        assert np.array_equal(net_a._inject_free, net_b._inject_free)
        assert np.array_equal(net_a._eject_free, net_b._eject_free)
        assert tr_a.counters == tr_b.counters
        assert tr_a.link_bytes == tr_b.link_bytes
        spans_a = [(s.rank, s.name, s.cat, s.t0, s.t1, s.args) for s in tr_a.spans]
        spans_b = [(s.rank, s.name, s.cat, s.t0, s.t1, s.args) for s in tr_b.spans]
        assert spans_a == spans_b
        for tr in (tr_a, tr_b):  # both messages to rank 9 share one name string
            first, second = [s.name for s in tr.spans if s.args["dst"] == 9]
            assert first is second

    def test_single_request_delegates_to_scalar(self):
        eng, net = make_net()
        (fut,) = net.transfer_many(0, [(9, 4096)])
        eng2, net2 = make_net()
        fut2 = net2.transfer(0, 9, 4096)
        assert drain_times(eng, [fut]) == drain_times(eng2, [fut2])

    def test_empty_batch(self):
        eng, net = make_net()
        assert net.transfer_many(0, []) == []
        assert net.messages_sent == 0

    def test_negative_size_rejected(self):
        _eng, net = make_net()
        with pytest.raises(CommunicationError):
            net.transfer_many(0, [(9, 100), (10, -1)])


class TestCallbackAndFutureForms:
    """``transfer`` / ``transfer_many`` are Future adapters over
    ``transfer_then`` / ``transfer_many_then``: one pricing body, so the
    two forms cannot drift — same delivery times in the same order,
    same port state, counters and trace, same dropped packets."""

    #: The awkward fan-out from rank 0, then an ``n == 1`` batch from
    #: rank 2 onto a node the first batch already loaded.
    BATCHES = [(0, REQUESTS), (2, [(9, 512)])]

    def _run(self, future_form, bulk, plan=None):
        tracer = Tracer()
        eng, net = make_net(order="TXYZ", tracer=tracer)
        if plan is not None:
            net.fault = FaultInjector(plan)
            assert net.fault.net_active
        log = []  # (message index, engine.now, value) in callback order

        def landing(k):
            return lambda value=None: log.append((k, eng.now, value))

        k0 = 0
        for src, requests in self.BATCHES:
            fns = [landing(k0 + i) for i in range(len(requests))]
            k0 += len(requests)
            if future_form:
                if bulk:
                    futs = net.transfer_many(src, requests)
                else:
                    futs = [net.transfer(src, d, b) for d, b in requests]
                for fut, fn in zip(futs, fns):
                    fut.add_done_callback(fn)
            elif bulk:
                net.transfer_many_then(src, requests, fns)
            else:
                for (d, b), fn in zip(requests, fns):
                    net.transfer_then(src, d, b, fn)
        eng.run()
        spans = [(s.rank, s.name, s.cat, s.t0, s.t1, s.args) for s in tracer.spans]
        state = (
            list(net._inject_free), list(net._eject_free),
            net.messages_sent, net.bytes_sent,
            spans, tracer.counters, tracer.link_bytes,
        )
        return log, state

    @pytest.mark.parametrize("bulk", [False, True])
    def test_same_callbacks_same_state(self, bulk):
        log_cb, state_cb = self._run(future_form=False, bulk=bulk)
        log_fut, state_fut = self._run(future_form=True, bulk=bulk)
        n = sum(len(reqs) for _src, reqs in self.BATCHES)
        assert sorted(k for k, _t, _v in log_cb) == list(range(n))
        assert all(v is None for _k, _t, v in log_cb)
        assert log_cb == log_fut  # (index, time) in firing order; == on floats
        assert state_cb == state_fut

    @pytest.mark.parametrize("bulk", [False, True])
    def test_same_drops_under_net_faults(self, bulk):
        plan = FaultPlan(
            seed=5, drop_prob=0.4,
            link_windows=(LinkWindow(0.0, 1.0, 0.5),),
        )
        log_cb, state_cb = self._run(False, bulk, plan)
        log_fut, state_fut = self._run(True, bulk, plan)
        dropped = [k for k, _t, v in log_cb if v is FaultInjector.DROPPED]
        assert dropped and len(dropped) < len(log_cb)  # some of each
        assert all(v is None or v is FaultInjector.DROPPED for _k, _t, v in log_cb)
        assert log_cb == log_fut
        assert state_cb == state_fut
        # The window slowed the wire: not the fault-free timeline.
        assert state_cb[0] != self._run(False, bulk)[1][0]


def _priced(batches, bulk, plan=None):
    """Issue ``batches`` of ``(issue time, src, requests)`` and drain;
    returns every delivery's ``(message index, time, value)`` in firing
    order, plus the port timelines, counters and trace."""
    tracer = Tracer()
    eng, net = make_net(order="TXYZ", tracer=tracer)
    if plan is not None:
        net.fault = FaultInjector(plan)
    log = []

    def landing(k):
        return lambda value=None: log.append((k, eng.now, value))

    k0 = 0
    for t, src, requests in batches:
        fns = [landing(k0 + i) for i in range(len(requests))]
        k0 += len(requests)
        if bulk:
            issue = partial(net.transfer_many_then, src, requests, fns)
        else:
            def issue(src=src, requests=requests, fns=fns):
                for (d, b), fn in zip(requests, fns):
                    net.transfer_then(src, d, b, fn)
        eng.schedule_at(t, issue)
    eng.run()
    spans = [(s.rank, s.name, s.cat, s.t0, s.t1, s.args) for s in tracer.spans]
    return log, (
        list(net._inject_free), list(net._eject_free), net.messages_sent,
        net.bytes_sent, spans, tracer.counters, tracer.link_bytes,
    )


#: Sizes that matter to the port law: empty and one-byte messages (the
#: bandwidth curve's floor), small ones, and large ones.
SIZES = st.one_of(
    st.sampled_from([0, 1]), st.integers(2, 4096), st.integers(1 << 16, 1 << 20)
)
#: A few destinations, so nodes repeat within a batch; under TXYZ order
#: ranks 2k and 2k + 1 share node k, so sources 0 / 2 / 9 have a
#: same-node peer among them (1, 3, 8).
DESTS = st.sampled_from([0, 1, 2, 3, 8, 9, 17, 33, 40, 63])
BATCHES = st.lists(
    st.tuples(
        st.sampled_from([0.0, 5e-6, 1e-4]),
        st.sampled_from([0, 2, 9]),
        st.lists(st.tuples(DESTS, SIZES), min_size=1, max_size=12),
    ),
    min_size=1, max_size=4,
).map(lambda bs: sorted(bs, key=lambda b: b[0]))


class TestBatchEqualsOneAtATime:
    """Property: a batch prices exactly as ``transfer_then`` per message."""

    @settings(max_examples=60, deadline=None)
    @given(batches=BATCHES, armed=st.booleans(), seed=st.integers(0, 2**16))
    def test_same_deliveries_ports_counters_and_trace(self, batches, armed, seed):
        plan = None
        if armed:
            plan = FaultPlan(
                seed=seed, drop_prob=0.3,
                link_windows=(LinkWindow(0.0, 5e-5, 0.5),),
            )
        log_one, state_one = _priced(batches, bulk=False, plan=plan)
        log_bulk, state_bulk = _priced(batches, bulk=True, plan=plan)
        assert len(log_bulk) == sum(len(reqs) for _t, _s, reqs in batches)
        assert log_bulk == log_one  # == on floats: bitwise, in firing order
        assert state_bulk == state_one

    @settings(max_examples=40, deadline=None)
    @given(batches=BATCHES)
    def test_the_loop_is_inject_then_eject(self, batches):
        """The batch loop walks the port law as :meth:`inject` and
        :meth:`eject` (the sharded transport's pricing) state it."""
        log, state = _priced(batches, bulk=True)
        eng, net = make_net(order="TXYZ")
        want = []

        def issue(src, requests):
            now, src_node = eng.now, net.mapping.node_of(src)
            for d, b in requests:
                dst_node = net.mapping.node_of(d)
                if dst_node == src_node:
                    want.append(now + net.link.sw_overhead_s + net.recv_overhead_s)
                else:
                    _done, arrive, wire, _hops = net.inject(src_node, dst_node, b, now)
                    want.append(net.eject(dst_node, arrive - wire, wire))

        for t, src, requests in batches:
            eng.schedule_at(t, partial(issue, src, requests))
        eng.run()
        assert [t for _k, t, _v in sorted(log)] == want
        assert state[:2] == (list(net._inject_free), list(net._eject_free))

    @settings(max_examples=30, deadline=None)
    @given(
        requests=st.lists(st.tuples(DESTS, SIZES), max_size=8),
        at=st.integers(0, 8),
        warm=st.booleans(),
    )
    def test_negative_size_raises_with_ports_untouched(self, requests, at, warm):
        eng, net = make_net(order="TXYZ")
        if warm:  # busy ports first, so "untouched" is not "all zero"
            net.transfer_many_then(0, REQUESTS, [lambda: None] * len(REQUESTS))
        before = (list(net._inject_free), list(net._eject_free),
                  net.messages_sent, net.bytes_sent, eng.pending_events)
        bad = requests[:at] + [(9, -1)] + requests[at:]
        with pytest.raises(CommunicationError):
            net.transfer_many_then(0, bad, [lambda: None] * len(bad))
        assert (list(net._inject_free), list(net._eject_free),
                net.messages_sent, net.bytes_sent, eng.pending_events) == before


class TestEndpointSerialization:
    def test_injector_serializes_in_request_order(self):
        """Equal-size messages from one node to one far node deliver
        strictly later, request by request, spaced at least a wire
        time apart (the injector admits one message at a time)."""
        eng, net = make_net()
        nbytes = 1 << 16
        futs = net.transfer_many(0, [(40, nbytes)] * 4)
        times = drain_times(eng, futs)
        wire = nbytes / float(net.link.effective_bandwidth(float(nbytes)))
        for earlier, later in zip(times, times[1:]):
            assert later > earlier
            assert later - earlier >= wire * 0.999

    def test_same_node_skips_wire_and_ports(self):
        """A same-node message pays software overhead only and leaves
        both port timelines untouched."""
        eng, net = make_net(order="TXYZ")  # ranks 0 and 1 share node 0
        assert int(net.mapping.node_of(0)) == int(net.mapping.node_of(1))
        futs = net.transfer_many(0, [(1, 1 << 20), (1, 64)])
        times = drain_times(eng, futs)
        expected = net.link.sw_overhead_s + net.recv_overhead_s
        assert times == [expected, expected]  # size-independent, no wire
        assert not any(net._inject_free)
        assert not any(net._eject_free)


class TestHopRowCache:
    def test_matches_hop_count(self):
        topo = TorusTopology((4, 4, 2), torus=True)
        row = topo.hop_row(3)
        dsts = np.arange(topo.num_nodes, dtype=np.int64)
        expected = topo.hop_count(np.int64(3), dsts)
        assert np.array_equal(row, expected)

    def test_cached_and_read_only(self):
        topo = TorusTopology((4, 4, 2), torus=True)
        row = topo.hop_row(5)
        assert topo.hop_row(5) is row  # second call hits the cache
        with pytest.raises(ValueError):
            row[0] = 99

    def test_out_of_range_rejected(self):
        topo = TorusTopology((4, 4, 2), torus=True)
        with pytest.raises(ConfigError):
            topo.hop_row(topo.num_nodes)
        with pytest.raises(ConfigError):
            topo.hop_row(-1)
