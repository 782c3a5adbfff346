"""Chaos driver: sweep node-failure rates over a farm scenario.

The engine behind ``python -m repro chaos``: take one traffic scenario,
run it once per crash rate in the sweep (each arm with its own
:class:`~repro.fault.plan.FarmFaults` process), and report how
availability, MTTR, goodput, and SLO attainment degrade as the machine
gets less reliable — the service-level availability-vs-failure-rate
curve.

This module imports :mod:`repro.farm` and is therefore *not*
re-exported from :mod:`repro.fault` (the fault package proper must stay
import-light for the render hot path); the CLI imports it lazily.

The sweep is fully deterministic: every arm reuses the scenario's seed,
and the farm's failure process draws from ``substream(seed, "farm",
"fault")``, so a chaos report is replayable bit for bit.
"""

from __future__ import annotations

import dataclasses

from repro.farm.result import FarmResult
from repro.farm.scenario import BUILTIN_SCENARIOS, FarmScenario
from repro.fault.plan import FarmFaults
from repro.utils.errors import ConfigError
from repro.utils.validation import check_spec_fields

_CHAOS_SCHEMA = {
    "scenario": str | dict | None,  # a BUILTIN_SCENARIOS name or an inline scenario
    "sweep": tuple[float, ...],
    "repair_s": float,
    "max_crashes": int,
    "seed": int | None,
}

#: CI-speed default: the functional selftest miniature under no faults,
#: a gentle rate, and a harsh one.  Rates are crashes per node-hour.
DEFAULT_SWEEP = (0.0, 5.0, 20.0)
DEFAULT_REPAIR_S = 5.0


def run_chaos(spec: dict) -> tuple[dict, FarmResult]:
    """Run the sweep described by ``spec``; return (report, last result).

    ``spec`` keys (all optional): ``scenario`` (a name from
    :data:`~repro.farm.scenario.BUILTIN_SCENARIOS`, default
    ``"selftest"``, or an inline farm-scenario object), ``sweep`` (list
    of crash rates per node-hour), ``repair_s``, ``max_crashes``,
    ``seed``.  Unknown keys and wrongly typed values fail with their
    full path, same as ``repro farm`` specs.

    The second return value is the highest-rate arm's
    :class:`~repro.farm.result.FarmResult`, so callers can export its
    trace (the arm where the fault spans are actually interesting).
    """
    check_spec_fields(spec, _CHAOS_SCHEMA, path="chaos")
    name = "selftest" if spec.get("scenario") is None else spec["scenario"]
    if isinstance(name, dict):
        name, scenario = "custom", FarmScenario.from_dict(name)
    elif name in BUILTIN_SCENARIOS:
        scenario = BUILTIN_SCENARIOS[name].build()
    else:
        raise ConfigError(
            f"chaos.scenario must be one of {sorted(BUILTIN_SCENARIOS)} "
            f"or a scenario object, got {name!r}"
        )
    if spec.get("seed") is not None:
        scenario = dataclasses.replace(scenario, seed=spec["seed"])
    repair_s = float(spec.get("repair_s", DEFAULT_REPAIR_S))
    max_crashes = spec.get("max_crashes", 100_000)
    sweep = spec.get("sweep", DEFAULT_SWEEP)
    if not sweep:
        raise ConfigError("chaos.sweep must be a non-empty list of crash rates")

    entries: list[dict] = []
    last: FarmResult | None = None
    for rate in sweep:
        rate = float(rate)
        if rate < 0:
            raise ConfigError(f"chaos.sweep rates must be >= 0, got {rate!r}")
        arm = dataclasses.replace(
            scenario,
            fault=FarmFaults(
                crash_rate_per_node_hour=rate,
                repair_s=repair_s,
                max_crashes=max_crashes,
            ),
        )
        result = arm.run()
        f = result.faults
        entries.append(
            {
                "crash_rate_per_node_hour": rate,
                "makespan_s": result.makespan_s,
                "slo_attainment": result.slo_attainment,
                "p95_s": result.p95_s,
                "crashes": f.crashes if f else 0,
                "jobs_killed": f.jobs_killed if f else 0,
                "retries": f.retries if f else 0,
                "availability": f.availability if f else 1.0,
                "goodput": f.goodput if f else 1.0,
                "mttr_s": f.mttr_s if f else 0.0,
            }
        )
        last = result
    report = {
        "scenario": name,
        "seed": scenario.seed,
        "total_nodes": scenario.total_nodes,
        "repair_s": repair_s,
        "requests": len(last.records) if last is not None else 0,
        "sweep": entries,
    }
    return report, last


def chaos_table(report: dict) -> str:
    """The human-readable sweep table (what ``repro chaos`` prints)."""
    from repro.utils.units import fmt_time

    lines = [
        f"chaos sweep: scenario '{report['scenario']}' "
        f"({report['total_nodes']}-node machine, {report['requests']} requests, "
        f"repair {fmt_time(report['repair_s'])}, seed {report['seed']})",
        f"  {'rate/node-h':>11} {'crashes':>8} {'killed':>7} {'avail%':>8} "
        f"{'goodput%':>9} {'MTTR':>10} {'SLO%':>7} {'p95':>10} {'makespan':>10}",
    ]
    for e in report["sweep"]:
        lines.append(
            f"  {e['crash_rate_per_node_hour']:>11.3g} {e['crashes']:>8} "
            f"{e['jobs_killed']:>7} {100.0 * e['availability']:>8.3f} "
            f"{100.0 * e['goodput']:>9.2f} {fmt_time(e['mttr_s']):>10} "
            f"{100.0 * e['slo_attainment']:>6.1f}% {fmt_time(e['p95_s']):>10} "
            f"{fmt_time(e['makespan_s']):>10}"
        )
    return "\n".join(lines)
