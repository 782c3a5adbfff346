"""Scenario loading, the built-in registry, and the caller's tracer.

* a wrongly typed value anywhere in a scenario or chaos spec is a
  ``ConfigError`` naming its key path — at load, never a ``TypeError``
  or ``ValueError`` from inside ``run()``;
* ``BUILTIN_SCENARIOS`` is the one name table, and ``check`` fails a
  miniature whose traffic did not move a counter it lists;
* ``RenderFarm`` records into the tracer it is given — an empty
  ``Tracer`` is falsy, which once made the farm swap in its own.
"""

import copy
import json

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.cli import main
from repro.farm import BUILTIN_SCENARIOS, FarmScenario, check, default_scenario
from repro.fault.chaos import run_chaos
from repro.obs.tracer import Tracer
from repro.utils.errors import ConfigError

VALID_SPEC = {
    "seed": 3,
    "mode": "model",
    "total_nodes": 2048,
    "slo_s": 90.0,
    "alloc_overhead_s": 1.0,
    "result_cache_entries": 8,
    "backfill": True,
    "coalesce": True,
    "size_policy": {"min_nodes": 256, "max_nodes": 1024},
    "fault": {"crash_rate_per_node_hour": 0.01, "repair_s": 30.0, "max_crashes": 5},
    "edge": {"entries_per_region": 4, "ttl_s": 60.0},
    "sessions": [
        {"name": "browse", "kind": "browse", "arrival": "open", "requests": 4,
         "rate_hz": 0.5, "cores": 4096, "steps": 2, "region": "us"},
        {"name": "multi", "kind": "multivar", "arrival": "closed", "requests": 3,
         "think_s": 1.0, "cores": 2048, "variables": ["pressure", "density"],
         "slo_s": 30.0},
        {"name": "viewer", "kind": "interactive", "arrival": "closed",
         "requests": 2, "think_s": 1.0, "cores": 2048, "levels": 3, "dwell_s": 2.0},
    ],
}


def _with(path: tuple, value) -> dict:
    spec = copy.deepcopy(VALID_SPEC)
    node = spec
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return spec


def _at(path: tuple):
    node = VALID_SPEC
    for key in path:
        node = node[key]
    return node


def _json_type(value) -> str:
    for name, types in (("bool", bool), ("number", (int, float)), ("string", str),
                        ("array", list), ("object", dict)):
        if isinstance(value, types):
            return name
    return "null"


class TestTypedValues:
    def test_the_valid_spec_runs_clean(self):
        scenario = FarmScenario.from_dict(VALID_SPEC)
        assert check(scenario.run(), scenario) == []

    @pytest.mark.parametrize(
        "path, value, named",
        [
            (("sessions", 0, "requests"), "x", "sessions[0].requests"),
            (("sessions", 0, "variables"), 5, "sessions[0].variables"),
            (("sessions", 0, "rate_hz"), "x", "sessions[0].rate_hz"),
            (("sessions", 0, "cores"), "many", "sessions[0].cores"),
            (("fault", "repair_s"), "x", "fault.repair_s"),
            (("total_nodes",), "x", "scenario.total_nodes"),
            (("alloc_overhead_s",), None, "scenario.alloc_overhead_s"),
            (("seed",), "a", "scenario.seed"),
            (("result_cache_entries",), "many", "scenario.result_cache_entries"),
            (("slo_s",), "soon", "scenario.slo_s"),
            (("sessions", 1, "requests"), True, "sessions[1].requests"),
            (("edge", "ttl_s"), [60.0], "edge.ttl_s"),
        ],
    )
    def test_wrong_type_is_a_config_error_with_its_key_path(self, path, value, named):
        with pytest.raises(ConfigError) as err:
            FarmScenario.from_dict(_with(path, value))
        assert named in str(err.value)

    def test_a_session_with_no_variables_is_rejected_at_load(self):
        with pytest.raises(ConfigError, match="at least one variable"):
            FarmScenario.from_dict(_with(("sessions", 0, "variables"), []))

    @pytest.mark.parametrize(
        "key, value",
        [("sweep", 5.0), ("sweep", ["x"]), ("repair_s", "x"),
         ("max_crashes", 2.5), ("seed", "a"), ("scenario", 7)],
    )
    def test_chaos_spec_values_are_typed_too(self, key, value):
        with pytest.raises(ConfigError, match=rf"chaos\.{key}"):
            run_chaos({key: value})

    #: A leaf of VALID_SPEC and a JSON value to put there instead.
    leaves = st.sampled_from(
        [(k,) for k, v in VALID_SPEC.items() if not isinstance(v, (dict, list))]
        + [(block, k) for block in ("size_policy", "fault", "edge")
           for k in VALID_SPEC[block]]
        + [("sessions", i, k) for i, s in enumerate(VALID_SPEC["sessions"]) for k in s]
    )
    junk = st.sampled_from([None, True, "x", 1.5, 7, [], {}, ["x"], [2]])

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(path=leaves, value=junk)
    def test_one_mutated_value_loads_and_runs_or_is_a_config_error(self, path, value):
        assume(_json_type(value) != _json_type(_at(path)))
        try:
            scenario = FarmScenario.from_dict(_with(path, value))
            scenario.run()
        except ConfigError:
            pass


class TestPolicyBlocks:
    """``admission``, ``autoscale`` and ``backend_options`` values are
    typed at load like every other block, and the CLI reports them."""

    bad = pytest.mark.parametrize(
        "blocks, named",
        [
            ({"admission": {"tiers": {"free": {"rate_hz": "fast"}}}},
             "admission.tiers.free.rate_hz"),
            ({"admission": {"tiers": {"free": {"rate_hz": 0.5, "burst": True}}}},
             "admission.tiers.free.burst"),
            ({"autoscale": {"policy": "reactive", "min_nodes": "x"}}, "autoscale.min_nodes"),
            ({"autoscale": {"policy": "static", "nodes": "8"}}, "autoscale.nodes"),
            ({"mode": "execute", "backend_options": {"grid": "x"}}, "backend_options.grid"),
            ({"mode": "execute", "backend_options": {"error_budget": "x"}},
             "backend_options.error_budget"),
        ],
    )

    @bad
    def test_a_bad_value_is_a_config_error_at_load(self, blocks, named):
        with pytest.raises(ConfigError) as err:
            FarmScenario.from_dict({**copy.deepcopy(VALID_SPEC), **blocks})
        assert named in str(err.value)

    @bad
    def test_the_cli_exits_2_naming_the_key(self, tmp_path, capsys, blocks, named):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**VALID_SPEC, **blocks}))
        assert main(["farm", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    def test_good_blocks_build(self):
        farm = FarmScenario.from_dict({
            **copy.deepcopy(VALID_SPEC),
            "admission": {"tiers": {"free": {"rate_hz": 0.5, "burst": 4}}},
            "autoscale": {"policy": "static", "nodes": 512},
            "backend_options": {"constants": None},
        }).build()
        assert farm.admission.tiers["free"].burst == 4.0
        assert farm.autoscaler.nodes == 512


class TestRegistry:
    def test_names(self):
        assert list(BUILTIN_SCENARIOS) == [
            "default", "flash", "selftest", "edge-selftest", "interactive-selftest",
        ]
        assert BUILTIN_SCENARIOS["default"].build() == default_scenario()

    def test_check_names_the_counter_that_did_not_move(self):
        scenario = default_scenario()
        result = scenario.run()
        assert check(result, scenario) == []
        # The default study has no edge tier and sheds nothing.
        failures = check(
            result, scenario, expects=("service.edge_hits|rejected", "service.cache_hits")
        )
        assert failures == [
            "the traffic is built to move service.edge_hits|rejected; it stayed 0"
        ]

    def test_check_counts_arrivals_against_the_workload(self):
        scenario = default_scenario()
        result = scenario.run()
        result.records.pop()
        assert "expected 240 arrivals accounted, got 239" in check(result, scenario)


class TestCallerTracer:
    def test_the_callers_tracer_is_the_one_recorded_into(self):
        tracer = Tracer()
        result = default_scenario().run(tracer=tracer)
        assert result.trace is tracer
        assert len(tracer.spans) > 0
        assert result.accounting_failures() == []

    def test_a_disabled_tracer_switches_farm_tracing_off(self):
        tracer = Tracer(enabled=False)
        result = default_scenario().run(tracer=tracer)
        assert result.trace is tracer
        assert tracer.spans == []
        assert result.accounting_failures() == []
