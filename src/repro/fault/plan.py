"""Fault plans: declarative, seeded descriptions of what goes wrong.

A :class:`FaultPlan` is data, not behaviour — an immutable list of node
crashes, link-degradation windows, slow-I/O stragglers, and message
drop/duplication probabilities.  The :class:`~repro.fault.inject.
FaultInjector` compiles a plan into engine events and hot-path
decisions; the plan itself stays hashable and comparable so runs can be
replayed and reports can name their configuration.

Determinism contract: everything random is drawn from
:func:`repro.utils.rng.substream` streams keyed on ``plan.seed`` plus a
stable label, and drawn in simulated-event order.  Two runs with the
same plan and the same program produce bitwise-identical results; a run
with ``FaultPlan.none()`` is bitwise identical to a run with no fault
layer installed at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.errors import FaultError
from repro.utils.rng import substream

#: Machine-wide bandwidth factor during a compiled link flap.
LINK_FLAP_FACTOR = 0.25


@dataclass(frozen=True)
class NodeCrash:
    """Node ``node`` fails permanently at simulated time ``time_s``.

    A crash kills every rank mapped to the node: their coroutines stop,
    their mailboxes are purged, and in-flight messages to or from them
    are discarded at delivery time (the crash tears down the NIC along
    with the cores).
    """

    time_s: float
    node: int


@dataclass(frozen=True)
class LinkWindow:
    """Bandwidth multiplier ``bandwidth_factor`` during ``[t0, t1)``.

    ``src_node``/``dst_node`` of ``-1`` match any endpoint, so a single
    window can model machine-wide congestion; a pair of windows with
    factors below and above 1 models a flapping link.  Factors multiply
    when windows overlap.
    """

    t0: float
    t1: float
    bandwidth_factor: float
    src_node: int = -1
    dst_node: int = -1


@dataclass(frozen=True)
class IOStraggler:
    """Rank ``rank``'s storage reads take ``delay_s`` extra seconds.

    Models a slow storage server or a contended ION: the rank's I/O
    stage is stretched, which delays the global render barrier exactly
    as the paper's Table II maxima would show.
    """

    rank: int
    delay_s: float


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff for retransmitting dropped messages."""

    base_s: float = 5e-5
    backoff: float = 2.0
    max_delay_s: float = 1e-2

    def delay(self, attempt: int) -> float:
        """Backoff before retransmission ``attempt`` (0-based)."""
        return min(self.base_s * self.backoff ** attempt, self.max_delay_s)


@dataclass(frozen=True)
class FaultPlan:
    """The full fault configuration for one run.

    ``drop_prob``/``dup_prob`` apply independently per message; drops
    are retried under ``retry`` (delivery is reliable, just late), and
    duplicates are suppressed by receiver-side sequence numbers, so
    message faults cost time but never correctness.  ``detect_s`` is
    the failure-detection latency: survivors learn the final dead set
    that long after the last crash.
    """

    seed: int = 0
    node_crashes: tuple[NodeCrash, ...] = ()
    link_windows: tuple[LinkWindow, ...] = ()
    io_stragglers: tuple[IOStraggler, ...] = ()
    drop_prob: float = 0.0
    dup_prob: float = 0.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    detect_s: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.drop_prob < 1.0:
            raise FaultError(f"drop_prob must be in [0, 1), got {self.drop_prob!r}")
        if not 0.0 <= self.dup_prob < 1.0:
            raise FaultError(f"dup_prob must be in [0, 1), got {self.dup_prob!r}")
        if self.detect_s < 0:
            raise FaultError(f"detect_s must be >= 0, got {self.detect_s!r}")
        for c in self.node_crashes:
            if c.time_s < 0:
                raise FaultError(f"crash time must be >= 0, got {c!r}")
        for w in self.link_windows:
            if w.t1 < w.t0 or w.bandwidth_factor <= 0:
                raise FaultError(f"invalid link window {w!r}")
        for s in self.io_stragglers:
            if s.delay_s < 0:
                raise FaultError(f"straggler delay must be >= 0, got {s!r}")

    @property
    def empty(self) -> bool:
        """True when the plan injects nothing at all."""
        return not (
            self.node_crashes
            or self.link_windows
            or self.io_stragglers
            or self.drop_prob > 0
            or self.dup_prob > 0
        )

    @classmethod
    def none(cls) -> "FaultPlan":
        """The empty plan — installing it changes nothing, bitwise."""
        return cls()


def compile_fault_plan(
    seed: int,
    *,
    num_nodes: int,
    duration_s: float,
    num_ranks: int | None = None,
    crash_frac: float = 0.0,
    crash_window: tuple[float, float] = (0.1, 0.9),
    straggler_frac: float = 0.0,
    straggler_delay_s: float = 0.0,
    link_flaps: int = 0,
    drop_prob: float = 0.0,
    dup_prob: float = 0.0,
    protect_nodes: tuple[int, ...] = (),
) -> FaultPlan:
    """Draw a concrete :class:`FaultPlan` from failure *rates*.

    Victims and times come from ``substream(seed, "fault", kind)``
    streams, so the same ``(seed, rates)`` pair compiles to the same
    plan on every platform.  ``crash_frac`` is the fraction of nodes
    (excluding ``protect_nodes``) that crash, at times uniform inside
    ``crash_window`` (fractions of ``duration_s``); ``straggler_frac``
    picks ranks whose reads are delayed by ``straggler_delay_s``;
    ``link_flaps`` cuts machine-wide bandwidth to :data:`LINK_FLAP_FACTOR`
    for 10%-of-duration windows.
    """
    if duration_s <= 0:
        raise FaultError(f"duration_s must be > 0, got {duration_s!r}")
    crashes: list[NodeCrash] = []
    if crash_frac > 0:
        eligible = [n for n in range(num_nodes) if n not in set(protect_nodes)]
        k = min(len(eligible), max(1, round(crash_frac * num_nodes)))
        rng = substream(seed, "fault", "crash")
        victims = rng.choice(len(eligible), size=k, replace=False)
        lo, hi = crash_window
        times = rng.uniform(lo * duration_s, hi * duration_s, size=k)
        crashes = [
            NodeCrash(float(t), int(eligible[int(v)]))
            for v, t in zip(victims, times)
        ]
        crashes.sort(key=lambda c: (c.time_s, c.node))
    stragglers: list[IOStraggler] = []
    if straggler_frac > 0 and num_ranks:
        k = min(num_ranks, max(1, round(straggler_frac * num_ranks)))
        rng = substream(seed, "fault", "io")
        ranks = rng.choice(num_ranks, size=k, replace=False)
        stragglers = sorted(
            (IOStraggler(int(r), float(straggler_delay_s)) for r in ranks),
            key=lambda s: s.rank,
        )
    windows: list[LinkWindow] = []
    if link_flaps > 0:
        rng = substream(seed, "fault", "link")
        width = 0.1 * duration_s
        for _ in range(link_flaps):
            t0 = float(rng.uniform(0.0, 0.9 * duration_s))
            windows.append(LinkWindow(t0, t0 + width, LINK_FLAP_FACTOR))
        windows.sort(key=lambda w: w.t0)
    return FaultPlan(
        seed=seed,
        node_crashes=tuple(crashes),
        link_windows=tuple(windows),
        io_stragglers=tuple(stragglers),
        drop_prob=float(drop_prob),
        dup_prob=float(dup_prob),
    )


@dataclass(frozen=True)
class FarmFaults:
    """Farm-level failure process: Poisson node crashes + repair time.

    ``crash_rate_per_node_hour`` scales with machine size (rate × total
    nodes = machine-wide crash rate); each crash quarantines the victim
    node for ``repair_s`` and kills (then requeues) any job running on
    it.  ``max_crashes`` is a safety valve for pathological sweeps.
    """

    crash_rate_per_node_hour: float = 0.0
    repair_s: float = 300.0
    max_crashes: int = 1_000_000

    def __post_init__(self):
        if self.crash_rate_per_node_hour < 0:
            raise FaultError(
                "crash_rate_per_node_hour must be >= 0, got "
                f"{self.crash_rate_per_node_hour!r}"
            )
        if self.repair_s <= 0:
            raise FaultError(f"repair_s must be > 0, got {self.repair_s!r}")
        if self.max_crashes < 0:
            raise FaultError(f"max_crashes must be >= 0, got {self.max_crashes!r}")

    @property
    def active(self) -> bool:
        return self.crash_rate_per_node_hour > 0 and self.max_crashes > 0
