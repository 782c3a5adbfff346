"""Carving the machine into partitions: sizes, placement, and bookkeeping.

Blue Gene jobs do not get arbitrary node sets — the control system
boots *partitions* of the standard sizes (:data:`STANDARD_PARTITIONS`),
each a contiguous, size-aligned block of the machine so its wiring
forms the advertised mesh/torus.  :class:`NodeAllocator` models that:
the machine is a linear node space ``[0, total_nodes)`` and an
allocation of ``size`` nodes is a first-fit interval whose start is a
multiple of ``size``.  Alignment makes the allocator behave like a
buddy system for the power-of-two standard sizes: partitions never
straddle each other, and freeing restores exactly the holes that
coalescing expects.

:class:`SizePolicy` maps a request's core count to the partition the
farm actually boots — the per-job knob the capacity study sweeps
(small partitions queue less but render slower; big ones invert that).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.partition import STANDARD_PARTITIONS
from repro.utils.errors import ConfigError
from repro.utils.validation import check_positive

#: Tracer lane for machine-level events (crashes, quarantine, scaling);
#: session lanes are 0..len(sessions)-1, so -1 is the "machine" track.
MACHINE_LANE = -1

#: Standard partition node counts, ascending.
STANDARD_SIZES: tuple[int, ...] = tuple(sorted(STANDARD_PARTITIONS))


def standard_size_for(nodes: int) -> int:
    """Smallest standard partition size holding ``nodes`` nodes."""
    check_positive("nodes", nodes)
    for size in STANDARD_SIZES:
        if size >= nodes:
            return size
    raise ConfigError(
        f"no standard partition holds {nodes} nodes "
        f"(largest is {STANDARD_SIZES[-1]})"
    )


@dataclass(frozen=True)
class SizePolicy:
    """Rounds a job's requested cores to the partition the farm boots.

    ``min_nodes``/``max_nodes`` clamp the standard size chosen for the
    request: a floor keeps tiny interactive jobs from fragmenting the
    machine into slivers; a cap keeps one greedy session from draining
    it.  The clamped size is always one of :data:`STANDARD_SIZES`.
    """

    min_nodes: int = 16
    max_nodes: int = 40960
    processes_per_node: int = 4

    def __post_init__(self) -> None:
        check_positive("min_nodes", self.min_nodes)
        check_positive("max_nodes", self.max_nodes)
        if self.min_nodes > self.max_nodes:
            raise ConfigError(
                f"min_nodes {self.min_nodes} exceeds max_nodes {self.max_nodes}"
            )

    def nodes_for(self, cores: int) -> int:
        """Partition size (nodes) for a request of ``cores`` cores."""
        check_positive("cores", cores)
        wanted = -(-cores // self.processes_per_node)
        clamped = min(max(wanted, self.min_nodes), self.max_nodes)
        return min(standard_size_for(clamped), standard_size_for(self.max_nodes))

    def cores_for(self, nodes: int) -> int:
        return nodes * self.processes_per_node


class NodeAllocator:
    """Aligned first-fit interval allocator over the linear node space.

    Invariants (pinned by ``tests/farm/test_allocator.py``):

    * live allocations never overlap;
    * every allocation of ``size`` starts at a multiple of ``size``;
    * ``free()`` coalesces, so alloc/free round-trips restore the
      allocator to its prior state exactly.
    """

    def __init__(self, total_nodes: int):
        check_positive("total_nodes", total_nodes)
        self.total_nodes = int(total_nodes)
        # Sorted, disjoint, coalesced [lo, hi) free intervals.
        self._free: list[tuple[int, int]] = [(0, self.total_nodes)]
        # Bumped by every change to the free list; the farm keys its
        # memoised EASY reservation on it.
        self.version = 0

    @property
    def free_nodes(self) -> int:
        return sum(hi - lo for lo, hi in self._free)

    @property
    def allocated_nodes(self) -> int:
        return self.total_nodes - self.free_nodes

    def clone(self) -> "NodeAllocator":
        """Snapshot for what-if placement (backfill shadow computation)."""
        c = NodeAllocator(self.total_nodes)
        c._free = list(self._free)
        return c

    def fits(self, size: int) -> bool:
        return self._find(size) is not None

    def alloc(self, size: int) -> tuple[int, int] | None:
        """Allocate an aligned ``size``-node interval, or ``None``."""
        check_positive("size", size)
        found = self._find(size)
        if found is None:
            return None
        idx, start = found
        self.version += 1
        lo, hi = self._free[idx]
        replacement = []
        if start > lo:
            replacement.append((lo, start))
        if start + size < hi:
            replacement.append((start + size, hi))
        self._free[idx : idx + 1] = replacement
        return (start, start + size)

    def reserve(self, interval: tuple[int, int]) -> None:
        """Carve an *exact* interval out of the free pool (quarantine).

        Unlike :meth:`alloc`, the interval is caller-chosen and need not
        be size-aligned — fault handling uses it to fence off a crashed
        node ``(v, v + 1)`` for repair.  Every node in the interval must
        currently be free; :meth:`free` returns it like any allocation.
        """
        lo, hi = interval
        if not (0 <= lo < hi <= self.total_nodes):
            raise ConfigError(f"cannot reserve interval {interval!r}")
        for idx, (flo, fhi) in enumerate(self._free):
            if flo <= lo and hi <= fhi:
                replacement = []
                if lo > flo:
                    replacement.append((flo, lo))
                if hi < fhi:
                    replacement.append((hi, fhi))
                self._free[idx : idx + 1] = replacement
                self.version += 1
                return
        raise ConfigError(
            f"cannot reserve {interval!r}: nodes are allocated or already reserved"
        )

    def free(self, interval: tuple[int, int]) -> None:
        """Return an interval obtained from :meth:`alloc`; coalesces."""
        lo, hi = interval
        if not (0 <= lo < hi <= self.total_nodes):
            raise ConfigError(f"cannot free interval {interval!r}")
        for flo, fhi in self._free:
            if lo < fhi and flo < hi:
                raise ConfigError(
                    f"double free: {interval!r} overlaps free interval {(flo, fhi)!r}"
                )
        self._free.append((lo, hi))
        self._free.sort()
        merged: list[tuple[int, int]] = []
        for ilo, ihi in self._free:
            if merged and ilo == merged[-1][1]:
                merged[-1] = (merged[-1][0], ihi)
            else:
                merged.append((ilo, ihi))
        self._free = merged
        self.version += 1

    def _find(self, size: int) -> tuple[int, int] | None:
        """(free-list index, aligned start) of the first fit, or None."""
        for idx, (lo, hi) in enumerate(self._free):
            start = -(-lo // size) * size  # round lo up to the alignment
            if start + size <= hi:
                return idx, start
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<NodeAllocator {self.allocated_nodes}/{self.total_nodes} "
            f"allocated, {len(self._free)} holes>"
        )
