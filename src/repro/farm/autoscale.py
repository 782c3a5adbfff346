"""Autoscaling: grow and shrink the provisioned partition pool.

The paper's machine is a fixed allocation, but a *service* pays for
node-hours whether frames arrive or not.  Against diurnal traffic a
static pool is sized for the peak and idles all night; against a flash
crowd a pool sized for the average melts.  The autoscaler closes the
loop: a policy object is evaluated every ``interval_s`` of simulated
time and returns a target pool size.  The farm's :class:`NodePool`
applies it by *fencing* node space, not resizing it — unprovisioned
nodes sit in an exact allocator reservation at the top of the node
space, so growth is a ``free`` of fence and shrink is a ``reserve`` of
the drain region (skipped without harm while a job or a quarantined
node still holds nodes there, and retried at the next evaluation).

Accounting is the point: ``FarmResult.provisioned_node_s`` integrates
``provisioned * dt`` over the run, so the capacity study can report
node-hours actually held, not machine size times makespan.  With no
policy the pool is the whole machine: it schedules nothing, and its
integral is machine size times makespan.

Policies are deliberately simple (this is a simulator, not a control
theory thesis): :class:`StaticPool` pins a size, and
:class:`ReactiveAutoscaler` doubles on pressure (queue non-empty or
utilization above ``high_util``) and halves when idle below
``low_util``, clamped to ``[min_nodes, max_nodes]``.  Doubling keeps
the pool on power-of-two-ish sizes, which the aligned first-fit
allocator and the torus-partition size policy both reward.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar

from repro.farm.allocator import MACHINE_LANE
from repro.obs.tracer import CAT_FARM
from repro.utils.errors import ConfigError

if TYPE_CHECKING:
    from repro.farm.service import RenderFarm


@dataclass(frozen=True)
class StaticPool:
    """A fixed pool smaller than the machine: pay for ``nodes``, always.

    The baseline arm of the capacity study — and the way to model a
    service that rents a fixed reservation instead of the full machine.
    """

    nodes: int
    name: ClassVar[str] = "static"
    interval_s: ClassVar[float] = 0.0  # never re-evaluated

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ConfigError(f"static pool needs nodes >= 1, got {self.nodes}")

    @property
    def max_nodes(self) -> int:
        return self.nodes

    def initial(self, total_nodes: int) -> int:
        return min(self.nodes, total_nodes)

    def target(self, **_kw) -> int:
        return self.nodes


@dataclass(frozen=True)
class ReactiveAutoscaler:
    """Double under pressure, halve when idle, within ``[min, max]``.

    Pressure is a non-empty queue or busy/provisioned utilization above
    ``high_util``; idleness is an empty queue below ``low_util``.  The
    asymmetric thresholds (and the evaluation interval itself) are the
    hysteresis that keeps the pool from flapping.
    """

    min_nodes: int = 256
    max_nodes: int = 40960
    initial_nodes: int | None = None  # defaults to min_nodes
    interval_s: float = 30.0
    high_util: float = 0.85
    low_util: float = 0.25
    name: ClassVar[str] = "reactive"

    def __post_init__(self) -> None:
        if self.min_nodes < 1:
            raise ConfigError(f"autoscale min_nodes must be >= 1, got {self.min_nodes}")
        if self.max_nodes < self.min_nodes:
            raise ConfigError(
                f"autoscale max_nodes {self.max_nodes} < min_nodes {self.min_nodes}"
            )
        if self.initial_nodes is not None and not (
            self.min_nodes <= self.initial_nodes <= self.max_nodes
        ):
            raise ConfigError(
                f"autoscale initial_nodes {self.initial_nodes} outside "
                f"[{self.min_nodes}, {self.max_nodes}]"
            )
        if self.interval_s <= 0:
            raise ConfigError(f"autoscale interval_s must be > 0, got {self.interval_s}")
        if not 0.0 < self.low_util < self.high_util <= 1.0:
            raise ConfigError(
                f"autoscale needs 0 < low_util < high_util <= 1, "
                f"got {self.low_util}/{self.high_util}"
            )

    def initial(self, total_nodes: int) -> int:
        return min(self.initial_nodes or self.min_nodes, total_nodes)

    def target(
        self,
        *,
        now: float,
        provisioned: int,
        busy_nodes: int,
        queue_depth: int,
        total_nodes: int,
    ) -> int:
        del now, total_nodes  # reactive policy is memoryless
        util = busy_nodes / provisioned if provisioned else 1.0
        if queue_depth > 0 or util > self.high_util:
            return min(provisioned * 2, self.max_nodes)
        if queue_depth == 0 and util < self.low_util:
            return max(provisioned // 2, self.min_nodes)
        return provisioned


class NodePool:
    """The provisioned share of one farm run's machine.

    Owns the fence over the farm's allocator, the policy's evaluation
    event, the ``provisioned * dt`` integral and the scale-event log.
    ``max_nodes`` is the most nodes the pool can ever provision.
    """

    def __init__(self, farm: RenderFarm, policy: StaticPool | ReactiveAutoscaler | None):
        # Not an owning reference: the farm owns this helper, and a
        # finished farm is freed by reference counting alone.
        self.farm = weakref.proxy(farm)
        self.policy = policy
        total = farm.allocator.total_nodes
        self.max_nodes = total if policy is None else min(total, int(policy.max_nodes))
        self.provisioned = total
        self.node_s = 0.0  # provisioned * dt, integrated up to _t0
        self._t0 = 0.0
        self.events: list[tuple[float, int, int]] = []  # (t, old, new)
        self._ev = None

    def start(self) -> None:
        """Fence off the unprovisioned top; arm the first evaluation."""
        if self.policy is None:
            return
        allocator = self.farm.allocator
        total = allocator.total_nodes
        initial = max(1, min(int(self.policy.initial(total)), total))
        if initial < total:
            allocator.reserve((initial, total))
        self.provisioned = initial
        self._arm()

    def _arm(self) -> None:
        if self.policy.interval_s > 0:
            self._ev = self.farm.engine.schedule(float(self.policy.interval_s), self._evaluate)

    def _evaluate(self) -> None:
        farm = self.farm
        self._ev = None
        now = farm.engine.now
        total = farm.allocator.total_nodes
        target = int(
            self.policy.target(
                now=now,
                provisioned=self.provisioned,
                busy_nodes=sum(job.nodes for job in farm._running.values()),
                queue_depth=len(farm._queue),
                total_nodes=total,
            )
        )
        target = max(1, min(target, total))
        if target != self.provisioned:
            self._provision(target, now)
        self._arm()

    def _provision(self, target: int, now: float) -> None:
        farm = self.farm
        old = self.provisioned
        if target > old:
            farm.allocator.free((old, target))
        else:
            try:
                farm.allocator.reserve((target, old))
            except ConfigError:
                return  # drain region busy or quarantined; retry next eval
        self.node_s += (now - self._t0) * old
        self._t0 = now
        self.provisioned = target
        self.events.append((now, old, target))
        farm.tracer.span(MACHINE_LANE, f"scale {old}->{target}", CAT_FARM, now, now, nodes=target)
        if target > old:
            farm._kick()

    def stop(self) -> None:
        """All requests done: no further evaluation."""
        if self._ev is not None:
            self._ev.cancel()
            self._ev = None

    def close(self, makespan: float) -> float:
        """Integrate the pool up to ``makespan``; the run's node-seconds."""
        self.node_s += (makespan - self._t0) * self.provisioned
        return self.node_s

    def summary(self) -> dict | None:
        if self.policy is None:
            return None
        sizes = [self.provisioned] + [old for _, old, _ in self.events]
        return {
            "policy": self.policy.name,
            "scale_events": len(self.events),
            "events": [[t, old, new] for t, old, new in self.events],
            "min_provisioned": min(sizes),
            "max_provisioned": max(sizes),
            "final_provisioned": self.provisioned,
            "provisioned_node_s": self.node_s,
        }
