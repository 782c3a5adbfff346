"""Striping model invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.storage.store import MemoryStore
from repro.storage.stripedfs import StorageSystem, StripeConfig, StripedFile


class TestStripeConfig:
    def test_server_rotation(self):
        c = StripeConfig(stripe_size=100, num_servers=4)
        assert c.server_of(0) == 0
        assert c.server_of(99) == 0
        assert c.server_of(100) == 1
        assert c.server_of(400) == 0  # wraps

    def test_vectorized_matches_scalar(self):
        c = StripeConfig(stripe_size=64, num_servers=7)
        offs = np.arange(0, 5000, 37)
        vec = c.server_of(offs)
        for o, s in zip(offs, vec):
            assert c.server_of(int(o)) == s


class TestStorageSystem:
    def test_paper_inventory(self):
        s = StorageSystem()
        assert s.num_servers == 136  # 17 SANs x 8 servers
        assert s.capacity_bytes == pytest.approx(4.3e15)  # 4.3 PB
        assert s.peak_aggregate_Bps == pytest.approx(17 * 5.5e9)

    def test_describe_mentions_sans(self):
        assert "17 SANs" in StorageSystem().describe()

    def test_san_of_server(self):
        s = StorageSystem()
        assert s.san_of_server(0) == 0
        assert s.san_of_server(8) == 1
        assert s.san_of_server(135) == 16


class TestStripedFile:
    def test_segments_split_at_stripe_boundaries(self):
        f = StripedFile(MemoryStore(b"\x00" * 1000), StripeConfig(100, 3))
        servers, lengths = f.server_segments(np.array([50]), np.array([200]))
        assert list(lengths) == [50, 100, 50]
        assert list(servers) == [0, 1, 2]

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10_000),
                st.integers(min_value=1, max_value=3_000),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_per_server_bytes_conserved(self, accesses):
        """Splitting at stripe boundaries never loses or invents bytes."""
        f = StripedFile(MemoryStore(b"\x00" * 20_000), StripeConfig(128, 5))
        offs = np.array([a[0] for a in accesses])
        lens = np.array([a[1] for a in accesses])
        per_server = f.per_server_bytes(offs, lens)
        assert per_server.sum() == lens.sum()
        assert per_server.shape == (5,)

    def test_single_byte_access(self):
        f = StripedFile(MemoryStore(b"\x00" * 100), StripeConfig(10, 2))
        servers, lengths = f.server_segments(np.array([15]), np.array([1]))
        assert list(servers) == [1]
        assert list(lengths) == [1]

    def test_read_write_delegate_to_store(self):
        store = MemoryStore()
        f = StripedFile(store)
        store.write(0, b"abc")
        assert f.read(0, 3) == b"abc"
        assert f.size() == 3
