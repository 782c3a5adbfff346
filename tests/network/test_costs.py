"""Cost-model laws: small-message falloff and the contention law."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.machine.mapping import RankMapping
from repro.machine.partition import Partition
from repro.network.costs import ContentionLaw, LinkCostModel
from repro.network.desnet import DESNetwork
from repro.network.topology import TorusTopology
from repro.sim.engine import Engine
from repro.utils.errors import ConfigError


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

    def test_wire_grows_with_size(self):
        m = LinkCostModel()
        assert m.wire_s(1 << 20) > m.wire_s(1 << 10)

    def test_wire_clamps_zero_bytes_to_free(self):
        m = LinkCostModel()
        assert m.wire_s(0) == 0.0
        assert np.array_equal(m.wire_s(np.array([0, 0])), [0.0, 0.0])

    @given(st.floats(min_value=1.0, max_value=1e12))
    def test_scalar_equals_array_element_bitwise(self, x):
        """The per-message (Python float) form and the batch (array)
        form are the same IEEE double: ``==``, not ``approx`` — the DES
        prices a message either way and the timelines must not differ."""
        m = LinkCostModel()
        assert isinstance(x, float)
        assert m.eta(x) == m.eta(np.array([x]))[0]
        assert m.effective_bandwidth(x) == m.effective_bandwidth(np.array([x]))[0]

    @given(
        st.one_of(st.integers(min_value=0, max_value=1 << 40),
                  st.floats(min_value=0.0, max_value=1e12)),
        st.one_of(st.just(1.0), st.floats(min_value=1e-3, max_value=4.0)),
    )
    def test_wire_scalar_equals_array_element_bitwise(self, nbytes, factor):
        """``wire_s`` on a Python int/float (the DES's per-message path)
        is the array form's element and today's spelled-out expression,
        with and without a link window's ``factor``."""
        m = LinkCostModel()
        s = max(float(nbytes), 1.0)
        spelled = nbytes / (m.effective_bandwidth(s) * factor)
        assert m.wire_s(nbytes, factor) == spelled
        assert m.wire_s(np.array([nbytes]), factor)[0] == spelled
        if factor == 1.0:
            assert m.wire_s(nbytes) == spelled


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


def _des_network(**kw):
    part = Partition(4)
    topo = TorusTopology(part.shape, torus=part.is_torus)
    return DESNetwork(Engine(), topo, RankMapping(part), **kw)


@pytest.mark.parametrize(
    "build",
    [
        lambda: LinkCostModel(sw_overhead_s=float("nan")),
        lambda: ContentionLaw(delta_s=float("nan")),
        lambda: _des_network(recv_overhead_s=float("nan")),
    ],
    ids=["link_sw_overhead", "contention_delta", "desnet_recv_overhead"],
)
def test_nan_cost_parameter_rejected(build):
    """A NaN constant would price every message NaN, silently."""
    with pytest.raises(ConfigError):
        build()
