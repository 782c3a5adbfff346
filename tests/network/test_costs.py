"""Cost-model laws: small-message falloff and the contention law."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.network.costs import (
    ContentionLaw,
    LinkCostModel,
    NetworkCostModel,
    TreeCostModel,
)
from repro.network.topology import TorusTopology


class TestLinkCostModel:
    def test_eta_monotone_in_size(self):
        m = LinkCostModel()
        sizes = np.array([64, 256, 1024, 65536, 1 << 20])
        eta = m.eta(sizes)
        assert np.all(np.diff(eta) > 0)
        assert np.all((eta > 0) & (eta < 1))

    def test_small_messages_fall_off_steeply(self):
        # Kumar & Heidelberger: below 256 bytes bandwidth collapses.
        m = LinkCostModel()
        assert m.effective_bandwidth(256) < 0.15 * m.bandwidth_Bps
        assert m.effective_bandwidth(1 << 20) > 0.95 * m.bandwidth_Bps

    def test_message_time_includes_latency_and_overhead(self):
        m = LinkCostModel()
        t = m.message_time(0, hops=10)
        assert t == pytest.approx(m.sw_overhead_s + 10 * m.hop_latency_s)

    def test_message_time_grows_with_size(self):
        m = LinkCostModel()
        assert m.message_time(1 << 20) > m.message_time(1 << 10)

    def test_serialized_time_sums(self):
        m = LinkCostModel()
        one = m.serialized_time(np.array([1000]))
        many = m.serialized_time(np.array([1000] * 10))
        assert many == pytest.approx(10 * one)

    def test_serialized_time_empty(self):
        assert LinkCostModel().serialized_time(np.array([])) == 0.0

    @given(st.floats(min_value=1.0, max_value=1e12))
    def test_scalar_equals_array_element_bitwise(self, x):
        """The per-message (Python float) form and the batch (array)
        form are the same IEEE double: ``==``, not ``approx`` — the DES
        prices a message either way and the timelines must not differ."""
        m = LinkCostModel()
        assert isinstance(x, float)
        assert m.eta(x) == m.eta(np.array([x]))[0]
        assert m.effective_bandwidth(x) == m.effective_bandwidth(np.array([x]))[0]


class TestContentionLaw:
    def test_below_threshold_no_delay(self):
        law = ContentionLaw(m_critical=1000)
        assert law.phase_delay(np.full(10, 100)) == 0.0

    def test_above_threshold_sqrt_growth(self):
        law = ContentionLaw(delta_s=1e-3, m_critical=0, s_small_bytes=1e12)
        d1 = law.phase_delay(np.full(10_000, 1))
        d4 = law.phase_delay(np.full(40_000, 1))
        assert d4 == pytest.approx(2 * d1, rel=1e-6)

    def test_large_messages_barely_count(self):
        law = ContentionLaw(m_critical=0, delta_s=1e-3)
        small = law.phase_delay(np.full(1000, 64))
        large = law.phase_delay(np.full(1000, 1 << 20))
        assert small > 20 * large

    def test_smallness_bounds(self):
        law = ContentionLaw()
        assert 0 < law.smallness(1 << 30) < law.smallness(1) <= 1.0


class TestNetworkCostModel:
    def test_empty_phase_is_free(self):
        m = NetworkCostModel(TorusTopology((2, 2, 2)))
        cost = m.phase_time(np.array([]), np.array([]), np.array([]))
        assert cost.total_s == 0.0

    def test_phase_cost_components(self):
        topo = TorusTopology((4, 4, 4))
        m = NetworkCostModel(topo)
        rng = np.random.default_rng(0)
        src = rng.integers(0, 64, 100)
        dst = rng.integers(0, 64, 100)
        sizes = np.full(100, 10_000)
        cost = m.phase_time(src, dst, sizes)
        assert cost.total_s >= max(cost.link_s, cost.send_s, cost.recv_s)
        assert cost.num_messages == 100

    def test_contention_can_be_disabled(self):
        topo = TorusTopology((4, 4, 4))
        m = NetworkCostModel(topo)
        src = np.zeros(100_000, dtype=np.int64)
        dst = np.ones(100_000, dtype=np.int64)
        sizes = np.full(100_000, 64)
        with_c = m.phase_time(src, dst, sizes, with_contention=True)
        without = m.phase_time(src, dst, sizes, with_contention=False)
        assert with_c.total_s > without.total_s
        assert without.contention_s == 0.0

    def test_hot_spot_receiver_dominates(self):
        """Many senders to one node: receive serialization sets the time."""
        topo = TorusTopology((4, 4, 4))
        m = NetworkCostModel(topo)
        src = np.arange(1, 33)
        dst = np.zeros(32, dtype=np.int64)
        cost = m.phase_time(src, dst, np.full(32, 50_000), with_contention=False)
        assert cost.recv_s >= cost.send_s


class TestTreeCostModel:
    def test_collective_time_scales_log(self):
        m = TreeCostModel()
        t1k = m.collective_time(1024, 1024)
        t4k = m.collective_time(1024, 4096)
        assert t4k > t1k
        assert t4k - t1k == pytest.approx(2 * m.hop_latency_s)
