"""Units and formatting."""

from repro.utils.units import fmt_bandwidth, fmt_bytes, fmt_time


class TestFormatting:
    def test_fmt_bytes_units(self):
        assert fmt_bytes(0) == "0 B"
        assert fmt_bytes(999) == "999 B"
        assert fmt_bytes(5_300_000_000) == "5.30 GB"
        assert fmt_bytes(4.3e15) == "4300.00 TB"

    def test_fmt_bytes_negative(self):
        assert fmt_bytes(-2_000_000) == "-2.00 MB"

    def test_fmt_time_scales(self):
        assert fmt_time(5.9) == "5.900 s"
        assert fmt_time(0.0032) == "3.200 ms"
        assert fmt_time(5e-6) == "5.000 us"
        assert fmt_time(211) == "3m 31.0s"

    def test_fmt_bandwidth(self):
        assert fmt_bandwidth(1.3e9) == "1.30 GB/s"
