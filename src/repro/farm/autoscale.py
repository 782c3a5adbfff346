"""Autoscaling: grow and shrink the provisioned partition pool.

The paper's machine is a fixed allocation, but a *service* pays for
node-hours whether frames arrive or not.  Against diurnal traffic a
static pool is sized for the peak and idles all night; against a flash
crowd a pool sized for the average melts.  The autoscaler closes the
loop: a policy object is evaluated every ``interval_s`` of simulated
time and returns a target pool size; the farm applies it by *fencing*
node space — unprovisioned nodes are reserved out of the allocator, so
growth is a ``free`` of fence and shrink is a ``reserve`` of the drain
region (skipped without harm while jobs still run there, and retried
at the next evaluation).

Accounting is the point: ``FarmResult.provisioned_node_s`` integrates
``provisioned * dt`` over the run, so the capacity study can report
node-hours actually held, not machine size times makespan.

Policies are deliberately simple (this is a simulator, not a control
theory thesis): :class:`StaticPool` pins a size, and
:class:`ReactiveAutoscaler` doubles on pressure (queue non-empty or
utilization above ``high_util``) and halves when idle below
``low_util``, clamped to ``[min_nodes, max_nodes]``.  Doubling keeps
the pool on power-of-two-ish sizes, which the aligned first-fit
allocator and the torus-partition size policy both reward.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.utils.errors import ConfigError


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
