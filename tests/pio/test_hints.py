"""MPI-IO hints."""

import pytest

from repro.pio.hints import IOHints, tuned_netcdf_hints
from repro.utils.errors import ConfigError
from repro.utils.units import MIB


class TestIOHints:
    def test_defaults(self):
        h = IOHints()
        assert h.cb_buffer_size == 16 * MIB

    def test_with_buffer(self):
        assert IOHints().with_buffer(1024).cb_buffer_size == 1024

    def test_invalid_rejected(self):
        with pytest.raises(ConfigError):
            IOHints(cb_buffer_size=0)
        with pytest.raises(ConfigError):
            IOHints(cb_nodes=-1)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            IOHints().cb_nodes = 5  # type: ignore[misc]


class TestTunedHints:
    def test_buffer_set_to_record(self):
        h = tuned_netcdf_hints(1120 * 1120 * 4)
        assert h.cb_buffer_size == 1120 * 1120 * 4

    def test_preserves_base(self):
        base = IOHints(cb_nodes=64)
        h = tuned_netcdf_hints(5000, base)
        assert h.cb_nodes == 64
        assert h.cb_buffer_size == 5000

    def test_invalid_record_size(self):
        with pytest.raises(ConfigError):
            tuned_netcdf_hints(0)
