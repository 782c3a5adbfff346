"""Deterministic fault injection and resilience policies.

The subsystem has three layers:

* **Plans** (:mod:`repro.fault.plan`) — seeded, declarative fault
  configurations: node crashes, link windows, I/O stragglers, message
  drop/duplication, plus the farm-level Poisson crash process.
* **Injection** (:mod:`repro.fault.inject`) — the run-local
  :class:`FaultInjector` threaded through engine, network, and message
  board by ``MPIWorld.run(fault=...)``.
* **Recovery** (:mod:`repro.fault.failover`, plus policy hooks in
  ``compositing.directsend``, ``core.pipeline`` and ``repro.farm``) —
  compositor failover geometry and job requeue/quarantine.

The chaos CLI driver (:mod:`repro.fault.chaos`) imports the farm and is
deliberately *not* re-exported here, keeping this package import-light
for the hot path.

Invariant: installing ``FaultPlan.none()`` leaves every run bitwise
identical to a run without the fault layer.
"""

from repro.fault.inject import MSG_DROPPED, FaultInjector
from repro.fault.failover import (
    check_exact_cover,
    coverage_rects,
    failover_assignments,
    split_rect_rows,
)
from repro.fault.metrics import FarmFaultStats, FaultReport
from repro.fault.plan import (
    FarmFaults,
    FaultPlan,
    IOStraggler,
    LinkWindow,
    NodeCrash,
    RetryPolicy,
    compile_fault_plan,
)

__all__ = [
    "FaultInjector",
    "MSG_DROPPED",
    "FaultPlan",
    "FarmFaults",
    "NodeCrash",
    "LinkWindow",
    "IOStraggler",
    "RetryPolicy",
    "compile_fault_plan",
    "FaultReport",
    "FarmFaultStats",
    "failover_assignments",
    "split_rect_rows",
    "coverage_rects",
    "check_exact_cover",
]
