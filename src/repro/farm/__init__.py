"""repro.farm — a rendering *service* on the simulated machine.

The paper's pipeline renders one frame for one user on one fixed
partition.  This package is the layer above it: a multi-tenant request
queue (:mod:`~repro.farm.workload`), a partition scheduler with FCFS +
EASY backfill over aligned standard-size allocations
(:mod:`~repro.farm.allocator`, :mod:`~repro.farm.service`), a
service-wide cache tier (:mod:`~repro.farm.cache` plus the shared
plan tier in :mod:`~repro.farm.backends`), and SLO accounting
(:mod:`~repro.farm.result`) — all sharing one simulated clock on
:class:`repro.sim.Engine`.

Typical use::

    from repro.farm import default_scenario

    result = default_scenario().run()
    print(result.report())          # p50/p95/p99, SLO, utilization...
    result.summary()                # the same as JSON

or from the shell: ``python -m repro farm [--scenario NAME|spec.json]``.
"""

from repro.farm.admission import TierSpec, TokenBucketAdmission
from repro.farm.allocator import NodeAllocator, SizePolicy, standard_size_for
from repro.farm.autoscale import ReactiveAutoscaler, StaticPool
from repro.farm.backends import (
    ExecuteBackend,
    ModelBackend,
    ProgressivePayload,
    backend_for,
)
from repro.farm.cache import FrameResultCache
from repro.farm.edge import EdgeCache, EdgeConfig
from repro.farm.request import FrameRequest, RequestRecord
from repro.farm.result import FarmResult
from repro.farm.scenario import (
    BUILTIN_SCENARIOS,
    FarmScenario,
    check,
    default_scenario,
    edge_selftest_scenario,
    flash_scenario,
    interactive_selftest_scenario,
    selftest_scenario,
)
from repro.farm.service import RenderFarm
from repro.farm.workload import SessionSpec, Workload
from repro.fault.metrics import FarmFaultStats
from repro.fault.plan import FarmFaults

__all__ = [
    "FarmFaults",
    "FarmFaultStats",
    "NodeAllocator",
    "SizePolicy",
    "standard_size_for",
    "ModelBackend",
    "ExecuteBackend",
    "backend_for",
    "FrameResultCache",
    "EdgeCache",
    "EdgeConfig",
    "TierSpec",
    "TokenBucketAdmission",
    "StaticPool",
    "ReactiveAutoscaler",
    "FrameRequest",
    "RequestRecord",
    "FarmResult",
    "FarmScenario",
    "default_scenario",
    "flash_scenario",
    "selftest_scenario",
    "edge_selftest_scenario",
    "interactive_selftest_scenario",
    "BUILTIN_SCENARIOS",
    "check",
    "ProgressivePayload",
    "RenderFarm",
    "SessionSpec",
    "Workload",
]
