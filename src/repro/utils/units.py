"""Byte, time, and bandwidth units and human-readable formatting.

Decimal units (KB, MB, GB, TB) follow storage-vendor convention and are
used for bandwidth figures, matching the paper ("GB/s").  Binary units
(KiB..TiB) are used for buffer sizes and memory capacities.
"""

from __future__ import annotations

KB = 10**3
MB = 10**6
GB = 10**9
TB = 10**12

KIB = 2**10
MIB = 2**20
GIB = 2**30
TIB = 2**40

US = 1e-6  # one microsecond, in seconds
MS = 1e-3  # one millisecond, in seconds

_DECIMAL_STEPS = [(TB, "TB"), (GB, "GB"), (MB, "MB"), (KB, "KB")]


def fmt_bytes(n: float) -> str:
    """Format a byte count with a decimal unit suffix.

    >>> fmt_bytes(5_300_000_000)
    '5.30 GB'
    """
    n = float(n)
    sign = "-" if n < 0 else ""
    n = abs(n)
    for step, suffix in _DECIMAL_STEPS:
        if n >= step:
            return f"{sign}{n / step:.2f} {suffix}"
    return f"{sign}{n:.0f} B"


def fmt_time(seconds: float) -> str:
    """Format a duration using the most natural unit.

    >>> fmt_time(5.9)
    '5.900 s'
    >>> fmt_time(5e-6)
    '5.000 us'
    """
    s = float(seconds)
    sign = "-" if s < 0 else ""
    s = abs(s)
    if s >= 60.0:
        minutes = int(s // 60)
        return f"{sign}{minutes}m {s - 60 * minutes:.1f}s"
    if s >= 1.0:
        return f"{sign}{s:.3f} s"
    if s >= MS:
        return f"{sign}{s / MS:.3f} ms"
    return f"{sign}{s / US:.3f} us"


def fmt_bandwidth(bytes_per_second: float) -> str:
    """Format a bandwidth in decimal units per second.

    >>> fmt_bandwidth(1.3e9)
    '1.30 GB/s'
    """
    return fmt_bytes(bytes_per_second) + "/s"
