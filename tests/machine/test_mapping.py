"""Rank <-> coordinate mapping invariants."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.machine.mapping import MAPPING_ORDERS, RankMapping
from repro.machine.partition import Partition
from repro.utils.errors import ConfigError


@pytest.fixture
def partition():
    return Partition(32, processes_per_node=4)  # 128 ranks on a 2x4x4 mesh


class TestRoundTrip:
    @pytest.mark.parametrize("order", MAPPING_ORDERS)
    def test_rank_coord_roundtrip(self, partition, order):
        m = RankMapping(partition, order)
        ranks = np.arange(m.nprocs)
        coords = m.coords_of(ranks)
        back = m.rank_of(coords)
        assert np.array_equal(back, ranks)

    @pytest.mark.parametrize("order", MAPPING_ORDERS)
    def test_mapping_is_a_bijection(self, partition, order):
        m = RankMapping(partition, order)
        coords = m.coords_of(np.arange(m.nprocs))
        unique = {tuple(c) for c in coords.reshape(-1, 4)}
        assert len(unique) == m.nprocs

    @given(st.sampled_from(MAPPING_ORDERS), st.integers(min_value=0, max_value=127))
    def test_scalar_matches_vector(self, order, rank):
        m = RankMapping(Partition(32, processes_per_node=4), order)
        assert m.coord_of(rank) == tuple(m.coords_of(np.array([rank]))[0])


class TestOrders:
    def test_xyzt_x_varies_fastest(self, partition):
        m = RankMapping(partition, "XYZT")
        c0 = m.coord_of(0)
        c1 = m.coord_of(1)
        assert c1[0] == c0[0] + 1  # x moved
        assert c1[1:] == c0[1:]

    def test_txyz_core_varies_fastest(self, partition):
        m = RankMapping(partition, "TXYZ")
        assert m.coord_of(0)[3] == 0
        assert m.coord_of(1)[3] == 1

    def test_txyz_keeps_node_ranks_together(self, partition):
        m = RankMapping(partition, "TXYZ")
        nodes = m.node_of(np.arange(8))
        assert np.array_equal(nodes[:4], [nodes[0]] * 4)

    def test_unknown_order_rejected(self, partition):
        with pytest.raises(ConfigError, match="unknown mapping"):
            RankMapping(partition, "ZZZZ")

    def test_rank_out_of_range_rejected(self, partition):
        m = RankMapping(partition)
        with pytest.raises(ConfigError):
            m.coords_of(np.array([m.nprocs]))

    def test_coord_out_of_range_rejected(self, partition):
        m = RankMapping(partition)
        with pytest.raises(ConfigError):
            m.rank_of(np.array([99, 0, 0, 0]))


#: The node-id table every world routes through: (nodes, ppn).
NODE_TABLE_PARTITIONS = [(8, 1), (64, 2), (32, 4), (512, 4)]


class TestNodeOf:
    """``node_of`` is a pure function of ``(partition, order)``; both
    DES worlds resolve every message's endpoints through it."""

    @pytest.mark.parametrize("order", MAPPING_ORDERS)
    @pytest.mark.parametrize("nodes,ppn", NODE_TABLE_PARTITIONS)
    def test_matches_coords_formula(self, nodes, ppn, order):
        part = Partition(nodes, processes_per_node=ppn)
        m = RankMapping(part, order)
        sx, sy, _sz = part.shape
        c = m.coords_of(np.arange(m.nprocs))
        expected = c[:, 0] + sx * (c[:, 1] + sy * c[:, 2])
        nodes_of = m.node_of(np.arange(m.nprocs))
        assert np.array_equal(nodes_of, expected)
        assert set(nodes_of.tolist()) == set(range(nodes))
        # Every input spelling of one rank agrees with the array form.
        for r in (0, 1, m.nprocs // 2 + 1, m.nprocs - 1):
            want = int(expected[r])
            assert m.node_of(r) == want
            assert m.node_of(np.int64(r)) == want
            assert m.node_of(np.array(r)) == want
            assert np.array_equal(m.node_of([r, 0]), [want, int(expected[0])])

    @pytest.mark.parametrize("order", MAPPING_ORDERS)
    @pytest.mark.parametrize("nodes,ppn", NODE_TABLE_PARTITIONS)
    def test_out_of_range_rejected_scalar_and_array(self, nodes, ppn, order):
        m = RankMapping(Partition(nodes, processes_per_node=ppn), order)
        for bad in (-1, m.nprocs):
            with pytest.raises(ConfigError):
                m.node_of(bad)
            with pytest.raises(ConfigError):
                m.node_of(np.int64(bad))
            with pytest.raises(ConfigError):
                m.node_of(np.array(bad))
            with pytest.raises(ConfigError):
                m.node_of(np.array([0, bad, 1]))
            with pytest.raises(ConfigError):
                m.node_of([0, bad])
