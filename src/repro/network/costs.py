"""Message cost laws for the BG/P interconnect model.

Two laws, and nothing that composes them into a phase time — the DES
port law (:mod:`repro.network.desnet`) and the composite model
(:mod:`repro.model.composite`) each do that their own way:

* :class:`LinkCostModel` — the per-message "clean network" cost: wire
  latency per hop, software overhead per message, and a small-message
  bandwidth-efficiency curve ``eta(s) = s / (s + s_half)`` reproducing
  the falloff Kumar & Heidelberger measured below ~256 B.
  :meth:`LinkCostModel.wire_s` is the one statement of a message's
  wire time.
* :class:`ContentionLaw` — an empirical congestion law for phases with
  very many concurrent small messages.  The cited BG/P studies (Davis
  et al.'s 3x hot-spot slowdown, Hoisie et al.'s drop to ~10 % of peak
  under contention, Almasi et al.'s 3x collective degradation for small
  messages) establish that effectiveness collapses as the in-flight
  small-message population grows; we model the added phase delay as
  ``delta * sqrt(max(0, M_eff - M_c))`` where ``M_eff`` weights each
  message by a smallness factor ``1 / (1 + s / s_c)``.  It is fitted,
  not derived from link loads: the constants are calibrated against
  the paper's Figs. 3-4 (see ``repro.model.constants`` and
  EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machine.specs import TorusLinkSpec
from repro.utils.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class LinkCostModel:
    """Clean-network per-message costs."""

    bandwidth_Bps: float = TorusLinkSpec().bandwidth_Bps
    hop_latency_s: float = TorusLinkSpec().latency_s
    sw_overhead_s: float = 10e-6  # per-message MPI software cost
    s_half_bytes: float = 2048.0  # size at which eta = 0.5

    def __post_init__(self) -> None:
        check_positive("bandwidth_Bps", self.bandwidth_Bps)
        check_non_negative("hop_latency_s", self.hop_latency_s)
        check_non_negative("sw_overhead_s", self.sw_overhead_s)
        check_positive("s_half_bytes", self.s_half_bytes)

    def eta(self, nbytes: np.ndarray | float) -> np.ndarray | float:
        """Bandwidth efficiency for a message size (0, 1)."""
        s = np.asarray(nbytes, dtype=np.float64)
        out = s / (s + self.s_half_bytes)
        return float(out) if out.ndim == 0 else out

    def effective_bandwidth(self, nbytes: np.ndarray | float) -> np.ndarray | float:
        """Achievable point-to-point bandwidth at a message size."""
        return self.bandwidth_Bps * self.eta(nbytes)

    def wire_s(self, nbytes: np.ndarray | float, factor: float = 1.0) -> np.ndarray | float:
        """Wire occupancy of a message (or an array of them), seconds.

        ``nbytes / (effective_bandwidth(max(nbytes, 1)) * factor)``, where
        ``factor`` is a link window's bandwidth multiplier.  The one
        statement of a message's wire time: the DES port law and the
        composite model both price through here.  A scalar costs one
        Python call and is the same IEEE double as the corresponding
        element of the array form.
        """
        if isinstance(nbytes, np.ndarray):
            s = nbytes.astype(np.float64, copy=False)
            return s / (self.effective_bandwidth(np.maximum(s, 1.0)) * factor)
        s = float(nbytes)
        if s < 1.0:
            s = 1.0
        return nbytes / (self.bandwidth_Bps * (s / (s + self.s_half_bytes)) * factor)


@dataclass(frozen=True)
class ContentionLaw:
    """Empirical delay from very many concurrent small messages.

    ``phase_delay`` returns the extra seconds a many-to-many phase
    suffers when the effective (smallness-weighted) in-flight message
    population exceeds the machine's comfortable threshold.
    """

    delta_s: float = 2.2e-3  # seconds per sqrt(message) over threshold
    m_critical: float = 12_000.0  # effective messages the network absorbs freely
    s_small_bytes: float = 700.0  # messages >> this barely contend

    def __post_init__(self) -> None:
        check_non_negative("delta_s", self.delta_s)
        check_non_negative("m_critical", self.m_critical)
        check_positive("s_small_bytes", self.s_small_bytes)

    def smallness(self, nbytes: np.ndarray | float) -> np.ndarray | float:
        """Weight in (0, 1]: 1 for tiny messages, ->0 for large ones."""
        s = np.asarray(nbytes, dtype=np.float64)
        out = 1.0 / (1.0 + s / self.s_small_bytes)
        return float(out) if out.ndim == 0 else out

    def effective_messages(self, sizes: np.ndarray) -> float:
        """Smallness-weighted in-flight message population."""
        s = np.asarray(sizes, dtype=np.float64)
        return float(np.sum(self.smallness(s))) if s.size else 0.0

    def phase_delay(self, sizes: np.ndarray) -> float:
        """Extra phase time caused by contention (seconds)."""
        m_eff = self.effective_messages(sizes)
        excess = max(0.0, m_eff - self.m_critical)
        return self.delta_s * float(np.sqrt(excess))
