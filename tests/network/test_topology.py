"""Torus topology and routing invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.network.topology import TorusTopology
from repro.utils.errors import ConfigError


@pytest.fixture
def torus():
    return TorusTopology((4, 4, 4), torus=True)


@pytest.fixture
def mesh():
    return TorusTopology((4, 4, 4), torus=False)


class TestCoordinates:
    def test_index_coord_roundtrip(self, torus):
        idx = np.arange(torus.num_nodes)
        back = torus.node_index(torus.node_coords(idx))
        assert np.array_equal(back, idx)

    def test_out_of_range_rejected(self, torus):
        with pytest.raises(ConfigError):
            torus.node_coords(64)
        with pytest.raises(ConfigError):
            torus.node_index(np.array([4, 0, 0]))

    def test_link_ids_unique(self, torus):
        ids = set()
        for node in range(torus.num_nodes):
            for dim in range(3):
                for pos in (0, 1):
                    ids.add(int(torus.link_id(node, dim, pos)))
        assert len(ids) == torus.num_links


class TestDistances:
    def test_self_distance_zero(self, torus):
        assert torus.hop_count(5, 5) == 0

    def test_neighbour_distance_one(self, torus):
        a = torus.node_index(np.array([0, 0, 0]))
        b = torus.node_index(np.array([1, 0, 0]))
        assert torus.hop_count(int(a), int(b)) == 1

    def test_wraparound_shortens_torus_paths(self, torus, mesh):
        a = int(torus.node_index(np.array([0, 0, 0])))
        b = int(torus.node_index(np.array([3, 0, 0])))
        assert torus.hop_count(a, b) == 1  # wraps
        assert mesh.hop_count(a, b) == 3  # no wrap

    @given(
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=63),
    )
    def test_hop_count_symmetric_on_torus(self, a, b):
        t = TorusTopology((4, 4, 4), torus=True)
        assert int(t.hop_count(a, b)) == int(t.hop_count(b, a))

    @given(st.integers(min_value=0, max_value=63), st.integers(min_value=0, max_value=63))
    def test_route_length_equals_hop_count(self, a, b):
        t = TorusTopology((4, 4, 4), torus=True)
        assert len(t.route(a, b)) == int(t.hop_count(a, b))

    def test_max_hops_bounded(self, torus):
        # On a 4^3 torus, the farthest node is 2+2+2 hops away.
        hops = torus.hop_count(np.zeros(64, dtype=int), np.arange(64))
        assert hops.max() == 6


class TestLinkLoads:
    def test_single_message_load(self, torus):
        a = int(torus.node_index(np.array([0, 0, 0])))
        b = int(torus.node_index(np.array([2, 1, 0])))
        loads = torus.link_loads(np.array([a]), np.array([b]), np.array([1000]))
        hops = int(torus.hop_count(a, b))
        assert loads.total_bytes == 1000 * hops
        assert loads.msgs_per_link.sum() == hops

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=63),
                st.integers(min_value=0, max_value=63),
                st.integers(min_value=1, max_value=10_000),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_load_conservation(self, msgs):
        """Total byte-hops equal the sum over messages of bytes * hops."""
        t = TorusTopology((4, 4, 4), torus=True)
        src = np.array([m[0] for m in msgs])
        dst = np.array([m[1] for m in msgs])
        size = np.array([m[2] for m in msgs])
        loads = t.link_loads(src, dst, size)
        expected = int(np.sum(size * t.hop_count(src, dst)))
        assert loads.total_bytes == expected

    def test_loads_match_scalar_routes(self, torus):
        rng = np.random.default_rng(0)
        src = rng.integers(0, 64, size=30)
        dst = rng.integers(0, 64, size=30)
        size = rng.integers(1, 500, size=30)
        loads = torus.link_loads(src, dst, size)
        expected_bytes = np.zeros(torus.num_links, dtype=np.int64)
        expected_msgs = np.zeros(torus.num_links, dtype=np.int64)
        for s, d, n in zip(src, dst, size):
            for link in torus.route(int(s), int(d)):
                expected_bytes[link] += n
                expected_msgs[link] += 1
        assert np.array_equal(loads.bytes_per_link, expected_bytes)
        assert np.array_equal(loads.msgs_per_link, expected_msgs)

    def test_mesh_never_uses_wrap_links(self, mesh):
        # On a mesh, a route from x=3 to x=0 must go through x=2, x=1.
        a = int(mesh.node_index(np.array([3, 0, 0])))
        b = int(mesh.node_index(np.array([0, 0, 0])))
        assert int(mesh.hop_count(a, b)) == 3

    def test_chunked_accumulation_matches(self, torus):
        rng = np.random.default_rng(1)
        src = rng.integers(0, 64, size=200)
        dst = rng.integers(0, 64, size=200)
        size = rng.integers(1, 100, size=200)
        a = torus.link_loads(src, dst, size, chunk=7)
        b = torus.link_loads(src, dst, size, chunk=10_000)
        assert np.array_equal(a.bytes_per_link, b.bytes_per_link)
