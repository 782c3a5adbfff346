"""Message cost laws for the BG/P interconnect model.

Three layers, composed by :class:`NetworkCostModel`:

* :class:`LinkCostModel` — the per-message/per-link "clean network"
  cost: wire latency per hop, software overhead per message, and a
  small-message bandwidth-efficiency curve ``eta(s) = s / (s + s_half)``
  reproducing the falloff Kumar & Heidelberger measured below ~256 B.
* :class:`ContentionLaw` — an empirical congestion law for phases with
  very many concurrent small messages.  The cited BG/P studies (Davis
  et al.'s 3x hot-spot slowdown, Hoisie et al.'s drop to ~10 % of peak
  under contention, Almasi et al.'s 3x collective degradation for small
  messages) establish that effectiveness collapses as the in-flight
  small-message population grows; we model the added phase delay as
  ``delta * sqrt(max(0, M_eff - M_c))`` where ``M_eff`` weights each
  message by a smallness factor ``1 / (1 + s / s_c)``.  The constants
  are calibrated against the paper's Figs. 3-4 (see
  ``repro.model.constants`` and EXPERIMENTS.md).
* Per-phase serialization bounds: a node can inject/eject only one
  message at a time, so phase time is never below the busiest
  endpoint's serialized send/receive time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machine.specs import TorusLinkSpec, TreeLinkSpec
from repro.network.topology import TorusTopology
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
        """Bandwidth efficiency for a message size (0, 1).

        A Python ``float`` stays one — the DES prices every scalar
        message through here — and is the same IEEE double as the
        corresponding element of the array form.
        """
        if type(nbytes) is float:
            return nbytes / (nbytes + self.s_half_bytes)
        s = np.asarray(nbytes, dtype=np.float64)
        out = s / (s + self.s_half_bytes)
        return float(out) if out.ndim == 0 else out

    def effective_bandwidth(self, nbytes: np.ndarray | float) -> np.ndarray | float:
        """Achievable point-to-point bandwidth at a message size."""
        return self.bandwidth_Bps * self.eta(nbytes)

    def message_time(self, nbytes: float, hops: int = 1) -> float:
        """End-to-end time for one message on an idle network."""
        check_non_negative("nbytes", nbytes)
        check_non_negative("hops", hops)
        transfer = nbytes / self.effective_bandwidth(max(float(nbytes), 1.0)) if nbytes else 0.0
        return self.sw_overhead_s + hops * self.hop_latency_s + transfer

    def serialized_time(self, sizes: np.ndarray) -> float:
        """Time for one endpoint to push/pull these messages back to back."""
        s = np.asarray(sizes, dtype=np.float64)
        if s.size == 0:
            return 0.0
        transfer = float(np.sum(s / self.effective_bandwidth(np.maximum(s, 1.0))))
        return self.sw_overhead_s * s.size + transfer


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


@dataclass(frozen=True)
class TreeCostModel:
    """Collective tree network costs (bcast/reduce hardware path)."""

    bandwidth_Bps: float = TreeLinkSpec().bandwidth_Bps
    hop_latency_s: float = TreeLinkSpec().latency_s

    def collective_time(self, nbytes: float, num_nodes: int) -> float:
        """One tree-pipelined broadcast/reduction over the partition."""
        check_non_negative("nbytes", nbytes)
        check_positive("num_nodes", num_nodes)
        depth = max(1.0, np.ceil(np.log2(max(num_nodes, 2))))
        return depth * self.hop_latency_s + nbytes / self.bandwidth_Bps


class NetworkCostModel:
    """Phase-level analytic cost of a message set on the torus.

    ``phase_time`` lower-bounds the phase by three effects and adds the
    contention delay:

    * busiest link: ``max_l (bytes_l / bw + msgs_l * hop_latency)``
    * busiest sender and receiver: serialized injection/ejection
    * contention: the :class:`ContentionLaw` delay
    """

    def __init__(
        self,
        topology: TorusTopology,
        link: LinkCostModel | None = None,
        contention: ContentionLaw | None = None,
    ):
        self.topology = topology
        self.link = link or LinkCostModel()
        self.contention = contention or ContentionLaw()

    def phase_time(
        self,
        src_nodes: np.ndarray,
        dst_nodes: np.ndarray,
        sizes: np.ndarray,
        with_contention: bool = True,
    ) -> "PhaseCost":
        """Cost of delivering all messages, all posted at phase start."""
        src = np.atleast_1d(np.asarray(src_nodes, dtype=np.int64))
        dst = np.atleast_1d(np.asarray(dst_nodes, dtype=np.int64))
        sizes = np.broadcast_to(np.asarray(sizes, dtype=np.int64), src.shape)
        if src.size == 0:
            return PhaseCost(0.0, 0.0, 0.0, 0.0, 0.0, 0)

        loads = self.topology.link_loads(src, dst, sizes)
        link_time = (
            loads.max_bytes / self.link.bandwidth_Bps
            + loads.max_msgs * self.link.hop_latency_s
        )
        send_time = self._endpoint_time(src, sizes)
        recv_time = self._endpoint_time(dst, sizes)
        cont = self.contention.phase_delay(sizes) if with_contention else 0.0
        base = max(link_time, send_time, recv_time)
        return PhaseCost(
            total_s=base + cont,
            link_s=link_time,
            send_s=send_time,
            recv_s=recv_time,
            contention_s=cont,
            num_messages=int(src.size),
        )

    def _endpoint_time(self, nodes: np.ndarray, sizes: np.ndarray) -> float:
        """Serialized time at the busiest endpoint node."""
        order = np.argsort(nodes, kind="stable")
        nodes_sorted = nodes[order]
        sizes_sorted = np.asarray(sizes, dtype=np.float64)[order]
        per_msg = self.link.sw_overhead_s + sizes_sorted / np.maximum(
            self.link.effective_bandwidth(np.maximum(sizes_sorted, 1.0)), 1e-30
        )
        # Segment-sum per node, then take the max.
        boundaries = np.flatnonzero(np.diff(nodes_sorted)) + 1
        segments = np.split(np.cumsum(per_msg), boundaries)
        best = 0.0
        prev_total = 0.0
        for seg in segments:
            if len(seg):
                best = max(best, seg[-1] - prev_total)
                prev_total = seg[-1]
        return best


@dataclass(frozen=True)
class PhaseCost:
    """Breakdown of one analytic communication phase."""

    total_s: float
    link_s: float
    send_s: float
    recv_s: float
    contention_s: float
    num_messages: int
