"""The farm's node-failure process: Poisson crashes and quarantine.

With :class:`~repro.fault.plan.FarmFaults` installed the farm runs a
:class:`CrashProcess`: crashes arrive at ``rate × total nodes``, each
one quarantines the victim node for ``repair_s`` (an exact-interval
:meth:`NodeAllocator.reserve`) and kills any job holding it — the
job's partial work is charged to ``wasted_node_s`` and the request
requeues at the back **with its waiters still attached**
(:meth:`RenderFarm._kill_job`): a crash mid-render costs one requeue,
not one per coalesced client.  The whole process draws from
``substream(seed, "farm", "fault")``, so a chaos sweep is replayable;
with no active faults the process schedules nothing, its stats are
``None``, and results are bitwise identical to the pre-fault farm.

Crashes are cancellable engine *events*, not a sleeping coroutine: the
gap to the next crash is drawn when the previous one fires, so tearing
the process down at the last completion is a single cancel and the RNG
draw sequence is exactly one (gap, victim) pair per crash.
"""

from __future__ import annotations

import weakref
from functools import partial
from typing import TYPE_CHECKING, Any

from repro.farm.allocator import MACHINE_LANE
from repro.fault.metrics import FarmFaultStats
from repro.fault.plan import FarmFaults
from repro.obs.tracer import CAT_FAULT
from repro.utils.errors import ConfigError
from repro.utils.rng import substream

if TYPE_CHECKING:
    from repro.farm.service import RenderFarm


class CrashProcess:
    """One farm run's crash events, quarantine ledger and fault books."""

    def __init__(self, farm: RenderFarm, faults: FarmFaults | None):
        # Not an owning reference: the farm owns this helper, and a
        # finished farm is freed by reference counting alone.
        self.farm = weakref.proxy(farm)
        self.faults = faults if faults is not None and faults.active else None
        self.crashes = 0
        self.wasted_node_s = 0.0
        self.quarantined_node_s = 0.0
        self._quarantined: dict[int, tuple[float, Any]] = {}  # node -> (t0, repair ev)
        self._rng = substream(farm.workload.seed, "farm", "fault")
        self._ev = None

    def start(self) -> None:
        """Draw the gap to the next crash and its victim, and schedule it."""
        if self.faults is None:
            return
        total = self.farm.allocator.total_nodes
        rate_hz = self.faults.crash_rate_per_node_hour * total / 3600.0
        if self.crashes >= self.faults.max_crashes:
            return
        gap = float(self._rng.exponential(1.0 / rate_hz))
        victim = int(self._rng.integers(total))
        self._ev = self.farm.engine.schedule(gap, partial(self._crash, victim))

    def _crash(self, node: int) -> None:
        farm = self.farm
        self._ev = None
        self.crashes += 1
        now = farm.engine.now
        farm.tracer.span(MACHINE_LANE, f"crash node {node}", CAT_FAULT, now, now, node=node)
        victim = next(
            (
                j
                for j in farm._running.values()
                if j.record.interval[0] <= node < j.record.interval[1]
            ),
            None,
        )
        if victim is not None:
            self.wasted_node_s += victim.nodes * (now - victim.record.t_hold)
            farm._kill_job(victim, node, now)
        self._quarantine(node, now)
        self.start()

    def _quarantine(self, node: int, now: float) -> None:
        if node in self._quarantined:
            return  # repeat crash on a node already fenced off
        try:
            self.farm.allocator.reserve((node, node + 1))
        except ConfigError:
            # The node is inside a partition whose job just finished in
            # this same timestep ordering — or behind the autoscale
            # fence; skip rather than corrupt the free list.  (Running
            # jobs were handled by _kill_job.)
            return
        ev = self.farm.engine.schedule(self.faults.repair_s, partial(self._release, node))
        self._quarantined[node] = (now, ev)

    def _release(self, node: int, repaired: bool = True) -> None:
        """Close ``node``'s quarantine: repaired (the pool grew, so
        dispatch), or the run is over and the repair is called off."""
        farm = self.farm
        t0, ev = self._quarantined.pop(node)
        now = farm.engine.now
        if not repaired:
            ev.cancel()
        farm.allocator.free((node, node + 1))
        self.quarantined_node_s += now - t0
        farm.tracer.span(MACHINE_LANE, f"quarantine node {node}", CAT_FAULT, t0, now, node=node)
        if repaired:
            farm._kick()

    def stop(self) -> None:
        """All requests done: cancel the pending crash so the engine
        stops at the true makespan, and close the quarantine ledger."""
        if self._ev is not None:
            self._ev.cancel()
            self._ev = None
        for node in sorted(self._quarantined):
            self._release(node, repaired=False)

    def stats(self, makespan: float) -> FarmFaultStats | None:
        if self.faults is None:
            return None
        farm = self.farm
        stats = FarmFaultStats(
            crashes=self.crashes,
            jobs_killed=sum(r.retries > 0 for r in farm.records),
            retries=sum(r.retries for r in farm.records),
            quarantined_node_s=self.quarantined_node_s,
            wasted_node_s=self.wasted_node_s,
            mttr_samples=[
                r.t_done - r.t_first_fail for r in farm.records if r.t_first_fail is not None
            ],
        )
        denom = farm.allocator.total_nodes * makespan
        if denom > 0:
            stats.availability = 1.0 - self.quarantined_node_s / denom
        if farm._util_node_s > 0:
            stats.goodput = 1.0 - self.wasted_node_s / farm._util_node_s
        return stats
