"""Compositor-count policies: how m is chosen from n renderers.

The paper's improvement (Sec. IV-A): keep m = n up to 1K renderers,
then clamp — "we used 1K compositors when the number of renderers is
between 1K and 4K and then 2K compositors beyond that.  We arrived at
these values empirically."  The ablation bench sweeps alternatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.utils.errors import ConfigError


@dataclass(frozen=True)
class CompositorPolicy:
    """A named function n -> m (with 1 <= m <= n)."""

    name: str
    fn: Callable[[int], int]

    def compositors_for(self, num_renderers: int) -> int:
        if num_renderers < 1:
            raise ConfigError(f"need at least one renderer, got {num_renderers}")
        m = int(self.fn(num_renderers))
        if not (1 <= m <= num_renderers):
            raise ConfigError(
                f"policy {self.name!r} produced m={m} for n={num_renderers}"
            )
        return m


def _paper_schedule(n: int) -> int:
    if n < 1024:
        return n
    if n < 4096:
        return 1024
    return 2048


#: The paper's empirical schedule (original scheme below 1K, clamped above).
PAPER_POLICY = CompositorPolicy("paper", _paper_schedule)

#: The original direct-send configuration: every renderer composites.
IDENTITY_POLICY = CompositorPolicy("identity", lambda n: n)


def fixed_policy(m: int) -> CompositorPolicy:
    """Always m compositors (clamped to n)."""
    if m < 1:
        raise ConfigError(f"fixed policy needs m >= 1, got {m}")
    return CompositorPolicy(f"fixed-{m}", lambda n: min(m, n))
