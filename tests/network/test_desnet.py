"""Event-driven transport semantics."""

import numpy as np
import pytest

from repro.fault.inject import FaultInjector
from repro.fault.plan import FaultPlan, LinkWindow
from repro.machine.mapping import RankMapping
from repro.machine.partition import Partition
from repro.network.costs import LinkCostModel
from repro.network.desnet import DESNetwork
from repro.network.topology import TorusTopology
from repro.sim.engine import Engine
from repro.utils.errors import CommunicationError


def make_net(nodes=16, ppn=4, order="XYZT"):
    part = Partition(nodes, processes_per_node=ppn)
    eng = Engine()
    mapping = RankMapping(part, order)
    topo = TorusTopology(part.shape, torus=part.is_torus)
    return eng, DESNetwork(eng, topo, mapping)


class TestTransfer:
    def test_delivery_happens_later(self):
        eng, net = make_net()
        fut = net.transfer(0, 17, 1000)
        assert not fut.done
        eng.run()
        assert fut.done
        assert eng.now > 0

    def test_same_node_is_fast(self):
        eng, net = make_net(order="TXYZ")  # ranks 0..3 share node 0
        net.transfer(0, 1, 1 << 20)
        t_local = _drain(eng)
        eng2, net2 = make_net(order="TXYZ")
        net2.transfer(0, 4 * 15, 1 << 20)  # far node
        t_remote = _drain(eng2)
        assert t_local < t_remote

    def test_larger_messages_take_longer(self):
        eng, net = make_net()
        net.transfer(0, 40, 100)
        t_small = _drain(eng)
        eng2, net2 = make_net()
        net2.transfer(0, 40, 10 << 20)
        t_big = _drain(eng2)
        assert t_big > t_small

    def test_injection_serializes(self):
        """Two big sends from one node take about twice one send."""
        eng, net = make_net()
        net.transfer(0, 40, 4 << 20)
        net.transfer(0, 44, 4 << 20)
        t_two = _drain(eng)
        eng2, net2 = make_net()
        net2.transfer(0, 44, 4 << 20)
        t_one = _drain(eng2)
        assert t_two > 1.8 * t_one

    def test_different_senders_overlap(self):
        eng, net = make_net()
        net.transfer(0, 40, 4 << 20)
        net.transfer(7, 47, 4 << 20)
        t_par = _drain(eng)
        eng2, net2 = make_net()
        net2.transfer(0, 40, 4 << 20)
        t_one = _drain(eng2)
        assert t_par < 1.5 * t_one

    def test_stats_accumulate(self):
        eng, net = make_net()
        net.transfer(0, 1, 100)
        net.transfer(1, 2, 200)
        eng.run()
        assert net.messages_sent == 2
        assert net.bytes_sent == 300

    def test_negative_size_rejected(self):
        _eng, net = make_net()
        with pytest.raises(CommunicationError):
            net.transfer(0, 1, -5)

    def test_more_hops_more_latency(self):
        link = LinkCostModel(sw_overhead_s=0.0)
        part = Partition(64, processes_per_node=1)
        mapping = RankMapping(part, "XYZT")
        topo = TorusTopology(part.shape, torus=part.is_torus)
        times = []
        for dst in (1, 2):  # 1 hop vs 2 hops along x
            eng = Engine()
            net = DESNetwork(eng, topo, mapping, link)
            net.transfer(0, dst, 0)
            times.append(_drain(eng))
        assert times[1] == pytest.approx(times[0] + link.hop_latency_s)


class TestFaultHooksLeaveTimelineAlone:
    """The fault hooks sit on the one transfer timeline: with nothing to
    inject they change no bit, and a drop changes the value, not the time."""

    @staticmethod
    def _timeline(plan):
        """(time, value) each of 200 random transfers resolves with,
        one posted every 3 us, under ``plan`` (None = no injector)."""
        eng, net = make_net()
        injector = None
        if plan is not None:
            injector = net.fault = FaultInjector(plan)
            assert injector.net_active
        nprocs = net.mapping.partition.nprocs
        rng = np.random.default_rng(11)
        resolved = {}

        def post(i, src, dst, nbytes):
            fut = net.transfer(src, dst, nbytes)
            fut.add_done_callback(lambda v: resolved.setdefault(i, (eng.now, v)))

        for i in range(200):
            src, dst = (int(r) for r in rng.integers(0, nprocs, size=2))
            nbytes = int(rng.integers(0, 1 << 16))
            eng.schedule_at(i * 3e-6, lambda a=(i, src, dst, nbytes): post(*a))
        eng.run()
        return [resolved[i] for i in range(200)], net, injector

    def test_window_that_never_opens_is_bitwise_inert(self):
        clean, clean_net, _ = self._timeline(None)
        never = FaultPlan(link_windows=(LinkWindow(1.0, 2.0, 0.1),))
        armed, armed_net, _ = self._timeline(never)
        assert armed == clean
        np.testing.assert_array_equal(armed_net._inject_free, clean_net._inject_free)
        np.testing.assert_array_equal(armed_net._eject_free, clean_net._eject_free)
        assert armed_net.bytes_sent == clean_net.bytes_sent

    def test_drop_resolves_at_would_be_delivery_time(self):
        clean, _net, _ = self._timeline(None)
        lossy, _net, injector = self._timeline(FaultPlan(seed=5, drop_prob=0.3))
        assert [t for t, _v in lossy] == [t for t, _v in clean]
        dropped = [v is injector.DROPPED for _t, v in lossy]
        assert sum(dropped) == injector.drops
        assert 0 < sum(dropped) < len(dropped)
        assert all(v is None for (_t, v), d in zip(lossy, dropped) if not d)


def _drain(eng: Engine) -> float:
    eng.run()
    return eng.now
