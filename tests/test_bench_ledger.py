"""The perf ledger (benchmarks/perf/ledger.py) and BENCH.json, with no bench runs."""

import importlib.util
import json
import pathlib
from statistics import median

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("perf_ledger", ROOT / "benchmarks/perf/ledger.py")
ledger = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger)

FIELDS = ["name", "guard", "config", "seconds", "samples", "before_seconds",
          "before_samples", "host", "recorded", "facts"]
HOST = {"python": "3.11.7", "machine": "x86_64", "cpus": 2}


def _entry(name="k", samples=(1.0, 2.0, 1.5), **facts):
    return ledger.record(name, {"guard": True, "config": {}, "samples": list(samples),
                                "facts": facts}, None, HOST, "2026-01-01")


def _run(seconds, **facts):
    return {"guard": True, "config": {}, "samples": [seconds], "facts": facts}


class TestCommittedLedger:
    entries = json.loads((ROOT / "BENCH.json").read_text())

    def test_one_schema_sorted_by_name(self):
        assert [e["name"] for e in self.entries] == sorted(e["name"] for e in self.entries)
        for e in self.entries:
            assert list(e) == FIELDS, e["name"]
            assert set(e["host"]) == {"python", "machine", "cpus"}, e["name"]

    def test_seconds_is_the_median_of_samples(self):
        for e in self.entries:
            assert e["seconds"] == median(e["samples"]), e["name"]
            if e["before_samples"] is not None:
                assert e["before_seconds"] == median(e["before_samples"]), e["name"]

    def test_every_guarded_entry_has_a_before(self):
        for e in self.entries:
            if e["guard"]:
                assert e["before_samples"], e["name"]

    def test_registry_and_ledger_name_the_same_benches(self):
        assert set(ledger.benches()) == {e["name"] for e in self.entries}


class TestGuardRule:
    def test_factor_of_the_slowest_sample(self):
        entry = _entry()  # slowest sample 2.0
        assert ledger.verdict(entry, _run(2.49 * 2.0)) is None
        assert "slowest sample" in ledger.verdict(entry, _run(2.51 * 2.0))

    def test_overhead_ceiling_breach_fails(self):
        entry = _entry(max_overhead_frac=0.05)
        assert ledger.verdict(entry, _run(1.0, overhead_frac=0.049)) is None
        assert "overhead" in ledger.verdict(entry, _run(1.0, overhead_frac=0.051))


class TestUpdateRotation:
    def test_before_kept_only_on_the_same_host(self):
        previous = _entry(samples=[3.0, 4.0, 5.0])
        fresh = _run(1.0)
        same = ledger.record("k", fresh, previous, dict(HOST), "2026-01-02")
        assert same["before_samples"] == [3.0, 4.0, 5.0]
        assert same["before_seconds"] == 4.0
        assert same["samples"] == [1.0] and same["seconds"] == 1.0
        other = ledger.record("k", fresh, previous, dict(HOST, cpus=8), "2026-01-02")
        assert other["before_samples"] is None and other["before_seconds"] is None


class TestGuardRun:
    @pytest.fixture
    def path(self, tmp_path):
        p = tmp_path / "BENCH.json"
        ledger.dump({"a": _entry("a"), "b": _entry("b")}, p)
        return p

    def test_leaves_the_ledger_byte_identical(self, path, capsys):
        before = path.read_bytes()
        registry = {"a": lambda: _run(1.0), "b": lambda: _run(6.0)}
        assert ledger.main([], registry=registry, path=path) == 1
        assert "b: median 6 s" in capsys.readouterr().err
        registry["b"] = lambda: _run(1.0)
        assert ledger.main([], registry=registry, path=path) == 0
        assert path.read_bytes() == before

    def test_unrecorded_and_unregistered_names_are_errors(self, path, capsys):
        registry = {"a": lambda: _run(1.0), "c": lambda: _run(1.0)}
        assert ledger.main([], registry=registry, path=path) == 2
        err = capsys.readouterr().err
        assert "c: registered bench has no ledger entry" in err
        assert "b: ledger entry has no registered bench" in err

    def test_update_merges_by_name(self, path):
        registry = {"a": lambda: _run(0.5), "b": lambda: _run(1.0)}
        assert ledger.main(["--update", "--only", "a"], registry=registry, path=path) == 0
        entries = ledger.load(path)
        assert entries["a"]["samples"] == [0.5]
        assert entries["b"] == _entry("b")
