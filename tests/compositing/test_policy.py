"""Compositor-count policies."""

import pytest

from repro.compositing.policy import (
    IDENTITY_POLICY,
    PAPER_POLICY,
    CompositorPolicy,
    fixed_policy,
)
from repro.utils.errors import ConfigError


class TestPaperPolicy:
    def test_below_1k_identity(self):
        for n in (64, 512, 1023):
            assert PAPER_POLICY.compositors_for(n) == n

    def test_1k_to_4k_clamps_at_1k(self):
        """"We used 1K compositors when the number of renderers is
        between 1K and 4K...\""""
        for n in (1024, 2048, 4095):
            assert PAPER_POLICY.compositors_for(n) == 1024

    def test_4k_and_beyond_clamps_at_2k(self):
        """...and then 2K compositors beyond that." """
        for n in (4096, 8192, 16384, 32768):
            assert PAPER_POLICY.compositors_for(n) == 2048


class TestOtherPolicies:
    def test_identity(self):
        assert IDENTITY_POLICY.compositors_for(7777) == 7777

    def test_fixed_clamped_to_n(self):
        p = fixed_policy(100)
        assert p.compositors_for(50) == 50
        assert p.compositors_for(500) == 100

    def test_invalid_policies(self):
        with pytest.raises(ConfigError):
            fixed_policy(0)
        bad = CompositorPolicy("bad", lambda n: n + 1)
        with pytest.raises(ConfigError, match="produced"):
            bad.compositors_for(4)
        with pytest.raises(ConfigError):
            PAPER_POLICY.compositors_for(0)
