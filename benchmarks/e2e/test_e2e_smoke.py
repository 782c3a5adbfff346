"""Smoke test of the e2e benchmark (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e -p no:cacheprovider

Runs the six workloads at toy sizes through the real runner and checks
the shape of what it reports against the driver's schema limits.
"""

from __future__ import annotations

import copy
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)

import report as reporting  # noqa: E402
import spec  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(*argv: str) -> str:
    proc = subprocess.run(
        [sys.executable, RUN, *argv], cwd=ROOT, check=True, timeout=300,
        stdout=subprocess.PIPE, text=True,
    )
    return proc.stdout


@pytest.fixture(scope="module")
def smoke_reports() -> list[dict]:
    """Two smoke runs of one seed; only the first makes the traced pass."""
    reports = []
    for i, extra in enumerate(([], ["--no-trace"])):
        path = os.path.join(HERE, "out", f"smoke-test-{i}.json")
        _run("--smoke", "--out", path, *extra)
        with open(path) as fh:
            reports.append(json.load(fh))
    return reports


def test_benchmark_json_is_the_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert bench == spec.benchmark_json(bench["run_seconds"])
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in bench[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for key in ("end_to_end", "per_layer") for m in bench[key])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]


def test_every_metric_on_every_workload(smoke_reports):
    traced = smoke_reports[0]
    assert list(traced["workloads"]) == list(spec.WORKLOAD_NAMES)
    per_layer = [name for name, _unit, _better in spec.per_layer()]
    for name, w in traced["workloads"].items():
        assert list(w["end_to_end"]) == [m for m, *_ in spec.END_TO_END], name
        assert all(s["median"] > 0 for s in w["end_to_end"].values()), name
        assert w["failed_ops"] == 0 and w["failures"] == [], (name, w["failures"])
        assert w["ops_attempted"] >= 4, name
        assert list(w["per_layer"]) == per_layer, name
        layer_sum = sum(w["per_layer"][f"{layer}.self_s"] for layer in spec.LAYERS)
        assert layer_sum == pytest.approx(w["traced_s"], rel=0.10), name
        for probe, _unit, _better, owners in spec.PROBES:
            assert (w["per_layer"][probe] != 0) == (name in owners), (name, probe)


def test_simulated_counters_repeat_exactly(smoke_reports):
    a, b = smoke_reports
    for name in spec.WORKLOAD_NAMES:
        assert a["workloads"][name]["simulated"] == b["workloads"][name]["simulated"], name
        assert a["workloads"][name]["simulated"], name


def test_compare_verdicts(smoke_reports):
    base = smoke_reports[0]
    text, ok = reporting.compare(base, base)
    assert ok and "worse" not in text and "DIFFERENT" not in text

    slower = copy.deepcopy(base)
    host = slower["workloads"]["farm_capacity_19k"]["end_to_end"]["host_s"]
    for key in ("median", "q1", "q3"):
        host[key] *= 100
    host["samples"] = [s * 100 for s in host["samples"]]
    slower["workloads"]["composite_des_2048"]["simulated"]["simulated.messages"] += 1
    text, ok = reporting.compare(base, slower)
    assert not ok
    rows = {tuple(line.split()[:2]): line.split()[-1] for line in text.splitlines() if line}
    assert rows[("farm_capacity_19k", "host_s")] == "worse"
    assert rows[("composite_des_2048", "simulated.messages")] == "DIFFERENT"
    assert rows[("frame_functional_64", "host_s")] == "same"


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_form_prints_the_contract_line(trace):
    out = _run("--workload", "alltoallv_des_1024", "--smoke", "--seed", "7",
               "--seconds", "0.2", "--trace", str(trace))
    last = json.loads(out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    want = spec.per_layer() if trace else [(n, u, b) for n, u, b, _bound in spec.END_TO_END]
    assert list(last["metrics"]) == [name for name, _unit, _better in want]
    for name, unit, _better in want:
        assert last["metrics"][name]["unit"] == unit
        assert isinstance(last["metrics"][name]["value"], (int, float))
