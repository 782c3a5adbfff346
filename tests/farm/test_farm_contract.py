"""The farm contract: what one scenario run must reproduce, bit for bit.

Every cell below runs one :class:`FarmScenario` (or one ``run_chaos``
sweep) and reduces everything the service can influence — read through
public attributes only — to six section digests:

``rec``   every :class:`RequestRecord` field of ``records`` and
          ``rejected`` (the request included; the payload as its type
          plus which earlier record delivered the *same object*, the
          single-flight identity);
``log``   ``RenderFarm.allocation_log``;
``span``  every span ``(rank, name, cat, t0, t1, args)`` in recording
          order;
``sum``   ``summary()`` as JSON;
``rep``   ``report()`` text;
``book``  ``accounting_failures()``, ``backend.plan_hits/plan_misses``
          and ``result_cache.hits/misses``.

Floats enter as ``float.hex()``, so a digest moves on the last bit.
``PINS`` holds the digests as recorded from the source as it stood when
this file was committed.  A change to how ``farm.service`` is *written*
keeps every digest without editing this file; a change that cannot is a
model change and has to be declared as one.  Every cell is also run
twice and must equal itself (no state leaks between runs, no
iteration-order dependence).

Traffic, so the cells are known to cover what they claim (counted on
the recording commit): the default study exercises renders, submit-time
cache hits, coalescing and — with a small or disabled cache — backfill;
the flash arms add edge hits, shedding (coalesce off) and scale events;
the three execute-mode miniatures run real frames, the whole service
tier and real ladders under 0 / 5 / 20 crashes per node-hour (kills,
requeues with waiters attached, quarantine, killed ladders);
``promote`` holds 101 in-queue promotions and 2 campaigns; ``ladder-edge``
holds coarse hits, cancelled ladders and edge TTL expiries.  The
execute-mode cells depend on the float32 render kernel, which
``tests/render/test_render_contract.py`` pins bitwise.

Crash arms carry an explicit ``max_crashes``: the interactive miniature
at 20 crashes per node-hour never finishes a ladder between crashes and
would otherwise run until the default valve of 1,000,000.
"""

import dataclasses
import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.farm import (
    EdgeConfig,
    FarmFaults,
    FarmScenario,
    SessionSpec,
    SizePolicy,
    default_scenario,
    edge_selftest_scenario,
    flash_scenario,
    interactive_selftest_scenario,
    selftest_scenario,
)
from repro.farm.request import RequestRecord
from repro.fault.chaos import run_chaos

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

_RECORD_FIELDS = [
    f.name for f in dataclasses.fields(RequestRecord) if f.name not in ("request", "payload")
]


# -- canonical form ------------------------------------------------------


def _canon(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "T" if x else "F"
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if x is None or isinstance(x, str):
        return repr(x)
    if isinstance(x, dict):
        return "{" + ",".join(f"{_canon(k)}:{_canon(v)}" for k, v in x.items()) + "}"
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in x) + "]"
    raise TypeError(f"no canonical form for {type(x).__name__}")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:10]


def _records(result) -> str:
    first_with: dict[int, int] = {}
    rows = []
    for i, r in enumerate(list(result.records) + list(result.rejected)):
        shared = first_with.setdefault(id(r.payload), i) if r.payload is not None else None
        rows.append(
            [
                list(dataclasses.astuple(r.request)),
                [getattr(r, name) for name in _RECORD_FIELDS],
                type(r.payload).__name__,
                shared,
            ]
        )
    return _canon([len(result.records), rows])


def _result_sections(result) -> dict[str, str]:
    spans = [[s.rank, s.name, s.cat, s.t0, s.t1, s.frame, s.args] for s in result.trace.spans]
    return {
        "rec": _sha(_records(result)),
        "span": _sha(_canon(spans)),
        "sum": _sha(json.dumps(result.summary(), indent=1)),
        "rep": _sha(result.report()),
    }


def _join(sections: dict[str, str]) -> str:
    return " ".join(f"{k}={v}" for k, v in sections.items())


def farm_digest(scenario: FarmScenario) -> str:
    farm = scenario.build()
    result = farm.run()
    sections = _result_sections(result)
    sections["log"] = _sha(_canon(farm.allocation_log))
    sections["book"] = _sha(
        _canon(
            [
                result.accounting_failures(),
                farm.backend.plan_hits,
                farm.backend.plan_misses,
                farm.result_cache.hits,
                farm.result_cache.misses,
            ]
        )
    )
    return _join(sections)


def chaos_digest(spec: dict) -> str:
    report, last = run_chaos(spec)
    sections = _result_sections(last)
    sections["book"] = _sha(_canon(last.accounting_failures()))
    sections["chaos"] = _sha(json.dumps(report, indent=1))
    return _join(sections)


# -- the cells -----------------------------------------------------------


def _times(scenario: FarmScenario, k: int) -> FarmScenario:
    sessions = tuple(
        dataclasses.replace(s, requests=s.requests * k) for s in scenario.sessions
    )
    return dataclasses.replace(scenario, sessions=sessions)


def _crashing(scenario: FarmScenario, rate: float, repair_s: float, max_crashes: int):
    fault = FarmFaults(
        crash_rate_per_node_hour=rate, repair_s=repair_s, max_crashes=max_crashes
    )
    return dataclasses.replace(scenario, fault=fault)


def promote_scenario() -> FarmScenario:
    """Coalescing off, a 4-entry cache and six tenants on one frame set:
    duplicates queue behind the first render and are promoted when it
    lands; two orbit animations ride along as campaign jobs."""
    browse = tuple(
        SessionSpec(
            name=f"browse{i}", kind="browse", arrival="open", requests=30,
            rate_hz=0.3, cores=4096, steps=8, start_s=float(i),
        )
        for i in range(6)
    )
    others = (
        SessionSpec(
            name="anim0", kind="orbit", campaign=True, requests=8, orbit_deg=15.0,
            prefetch_depth=2, arrival="open", rate_hz=0.05, cores=4096,
        ),
        SessionSpec(
            name="anim1", kind="orbit", campaign=True, requests=6, orbit_deg=30.0,
            prefetch_depth=0, arrival="closed", think_s=1.0, cores=8192, start_s=40.0,
        ),
        SessionSpec(
            name="multi0", kind="multivar", arrival="closed", requests=20,
            think_s=2.0, cores=2048, steps=3,
        ),
    )
    return FarmScenario(
        sessions=browse + others, seed=99, mode="model", total_nodes=2048,
        slo_s=200.0, alloc_overhead_s=1.5, result_cache_entries=4, coalesce=False,
        size_policy=SizePolicy(min_nodes=256, max_nodes=2048),
    )


def ladder_edge_scenario() -> FarmScenario:
    """Model-mode ladders behind a small, short-lived edge tier: fidgety
    viewers truncate ladders, revisits coarse-hit the published levels
    or edge-hit the full ladder, and the TTL expires both."""
    sessions = (
        SessionSpec(
            name="fidget0", kind="interactive", arrival="closed", requests=24,
            think_s=8.0, cores=2048, orbit_deg=45.0, levels=4, dwell_s=3.0,
            region="us",
        ),
        SessionSpec(
            name="fidget1", kind="interactive", arrival="open", requests=20,
            rate_hz=0.05, cores=2048, orbit_deg=90.0, levels=3, dwell_s=5.0,
            region="eu", start_s=15.0,
        ),
        SessionSpec(
            name="patient0", kind="interactive", arrival="closed", requests=12,
            think_s=20.0, cores=2048, orbit_deg=45.0, levels=4, dwell_s=0.0,
            region="us", start_s=5.0,
        ),
        SessionSpec(
            name="browse0", kind="browse", arrival="open", requests=16,
            rate_hz=0.04, cores=1024, steps=4, region="eu",
        ),
    )
    return FarmScenario(
        sessions=sessions, seed=321, mode="model", total_nodes=4096, slo_s=60.0,
        alloc_overhead_s=1.0, result_cache_entries=32,
        edge=EdgeConfig(entries_per_region=8, ttl_s=120.0),
        size_policy=SizePolicy(min_nodes=512, max_nodes=2048),
    )


def _example(name: str):
    return lambda: FarmScenario.from_file(str(REPO_ROOT / "examples" / name))


SCENARIOS = {
    "default": default_scenario,
    "default-cache16": lambda: default_scenario(result_cache_entries=16),
    "default-cache0": lambda: default_scenario(result_cache_entries=0),
    "default-fcfs": lambda: default_scenario(result_cache_entries=0, backfill=False),
    "default-no-coalesce": lambda: default_scenario(coalesce=False),
    "default-x8-cache4": lambda: _times(default_scenario(result_cache_entries=4), 8),
    # farm_capacity_19k's traffic at a tenth of its x80 scale (also the
    # default study x8 with a 16-entry cache: 1530 is the default seed).
    "capacity": lambda: _times(default_scenario(seed=1530, result_cache_entries=16), 8),
    "flash": flash_scenario,
    "flash-no-coalesce": lambda: flash_scenario(coalesce=False),
    "flash-no-edge": lambda: flash_scenario(edge=False),
    "flash-no-admission": lambda: flash_scenario(admission=False),
    "flash-no-autoscale": lambda: flash_scenario(autoscale=False),
    **{
        f"{name}-crash{rate}": (
            lambda make=make, rate=rate: _crashing(make(), float(rate), 5.0, 120)
        )
        for name, make in (
            ("selftest", selftest_scenario),
            ("edge-selftest", edge_selftest_scenario),
            ("interactive-selftest", interactive_selftest_scenario),
        )
        for rate in (0, 5, 20)
    },
    "default-crash": lambda: _crashing(default_scenario(), 0.05, 30.0, 200),
    "flash-crash": lambda: _crashing(flash_scenario(), 0.5, 30.0, 300),
    "example-flash": _example("farm_flash.json"),
    "example-interactive": _example("farm_interactive.json"),
    "promote": promote_scenario,
    "ladder-edge": ladder_edge_scenario,
}

CHAOS = {
    "chaos-selftest": {"max_crashes": 120},
    "chaos-inline": {
        "scenario": {
            "mode": "model", "total_nodes": 4096, "slo_s": 60.0,
            "alloc_overhead_s": 1.0, "result_cache_entries": 32,
            "edge": {"entries_per_region": 8, "ttl_s": 120.0},
            "size_policy": {"min_nodes": 512, "max_nodes": 2048},
            "sessions": [
                {"name": "viewer0", "kind": "interactive", "arrival": "closed",
                 "requests": 20, "think_s": 8.0, "cores": 2048, "orbit_deg": 45.0,
                 "levels": 4, "dwell_s": 4.0, "region": "us"},
                {"name": "browse0", "kind": "browse", "arrival": "open",
                 "requests": 30, "rate_hz": 0.1, "cores": 1024, "steps": 4,
                 "region": "eu"},
                {"name": "browse1", "kind": "browse", "arrival": "open",
                 "requests": 30, "rate_hz": 0.1, "cores": 1024, "steps": 4,
                 "region": "eu", "start_s": 3.0},
            ],
        },
        "sweep": [0.0, 0.05],
        "repair_s": 20.0,
        "max_crashes": 300,
        "seed": 5,
    },
}

PINS = {
    "default": (
        "rec=ae1586264f span=2a55ac2158 sum=0cdc87cffc rep=db514215ac log=e890c3c488 book=0425b7db94"
    ),
    "default-cache16": (
        "rec=b06fa44a24 span=13d1a50035 sum=b7f05ef036 rep=86f0f7b0fd log=f973fc98db book=e805e7be1e"
    ),
    "default-cache0": (
        "rec=16ed10474b span=c1607d7900 sum=471528eef5 rep=99c31879e8 log=a57442a41a book=ff0d01cd18"
    ),
    "default-fcfs": (
        "rec=b09803c950 span=cab5346ee8 sum=88e89cb03e rep=461e7b3707 log=837d7b7752 book=ee2489d157"
    ),
    "default-no-coalesce": (
        "rec=7809fffa7b span=1102e953ee sum=68c3551492 rep=1ef2f6265e log=e890c3c488 book=0425b7db94"
    ),
    "default-x8-cache4": (
        "rec=d3d3e33011 span=a2fd722c94 sum=6d5cf60250 rep=ed34ec0d58 log=2dc326ee60 book=0f33077352"
    ),
    "capacity": (
        "rec=ed46ae3371 span=419cdb924c sum=0c026b78af rep=df9a7d24f7 log=cbb9170a0e book=39de33815f"
    ),
    "flash": (
        "rec=4471df3b96 span=a00341beaf sum=ed5f988361 rep=c2efd43a0e log=363f0e1f5d book=4f49ecf6c6"
    ),
    "flash-no-coalesce": (
        "rec=93e32d64a5 span=957ce38089 sum=74cb58fea3 rep=1286ad255a log=e40de2f4eb book=27eb47ba2a"
    ),
    "flash-no-edge": (
        "rec=b6a62b705b span=d0897af2d0 sum=07925ea575 rep=473ec24168 log=363f0e1f5d book=beafc7516c"
    ),
    "flash-no-admission": (
        "rec=4471df3b96 span=a00341beaf sum=d5873e3d93 rep=7deb66c049 log=363f0e1f5d book=4f49ecf6c6"
    ),
    "flash-no-autoscale": (
        "rec=4471df3b96 span=c767e9cecd sum=292ce23848 rep=e7f118fca9 log=363f0e1f5d book=4f49ecf6c6"
    ),
    "selftest-crash0": (
        "rec=6385799bb2 span=2b5871429a sum=6df1727d80 rep=0aed9f8b41 log=b4a33e6f87 book=fb21ae6f83"
    ),
    "selftest-crash5": (
        "rec=6385799bb2 span=2b5871429a sum=6d8aed4da7 rep=326b2ffd0a log=b4a33e6f87 book=fb21ae6f83"
    ),
    "selftest-crash20": (
        "rec=2196cbb93e span=c1641288e4 sum=efa014d77d rep=9f0fc3dce6 log=7999f2df49 book=ae0b7f1a75"
    ),
    "edge-selftest-crash0": (
        "rec=516e410db3 span=fe461a8973 sum=30a0eb359e rep=1af8817ec6 log=4d226ce551 book=efaa07aec1"
    ),
    "edge-selftest-crash5": (
        "rec=516e410db3 span=1f1370d27f sum=48f1c4f430 rep=4bf189e4b3 log=4d226ce551 book=efaa07aec1"
    ),
    "edge-selftest-crash20": (
        "rec=41c771d9d4 span=b55926eec4 sum=28200b180c rep=e5ad4c86d2 log=9ad7459eb6 book=efaa07aec1"
    ),
    "interactive-selftest-crash0": (
        "rec=a47e054a03 span=541ee90ee7 sum=ab9aecf54c rep=d9f660aa4e log=a76e6d58d8 book=db152624e2"
    ),
    "interactive-selftest-crash5": (
        "rec=0ad0789ae3 span=aa7e2a7aba sum=42bd570a62 rep=bdabd65ded log=4bb9db5ec2 book=db152624e2"
    ),
    "interactive-selftest-crash20": (
        "rec=8b9249167d span=f5d8bf273e sum=5370e84bd3 rep=74e7f7a665 log=9335011b00 book=db152624e2"
    ),
    "default-crash": (
        "rec=9219e2d9ab span=d7113073ec sum=ba79ca97a4 rep=4ddb040e62 log=298de44d19 book=c7c81507d2"
    ),
    "flash-crash": (
        "rec=ad278f00ee span=ecb112b335 sum=01eb5327a5 rep=6a07d3dd03 log=556e122f27 book=4f49ecf6c6"
    ),
    "example-flash": (
        "rec=4471df3b96 span=a00341beaf sum=07644ba26f rep=c2efd43a0e log=363f0e1f5d book=4f49ecf6c6"
    ),
    "example-interactive": (
        "rec=533ff38d37 span=cc803ad3e4 sum=f4ab31581a rep=94da634460 log=8d2a4b4d87 book=d2e7d62deb"
    ),
    "promote": (
        "rec=83a31a729f span=6f89abf4f3 sum=0cd1a575ba rep=6e04368740 log=a942feb6b6 book=b2c68ef95d"
    ),
    "ladder-edge": (
        "rec=c2a68e38eb span=881dce05c9 sum=e17b52b543 rep=c0e5fbd2dd log=3c4fb385d2 book=4e399b8020"
    ),
    "chaos-selftest": (
        "rec=2196cbb93e span=c1641288e4 sum=efa014d77d rep=9f0fc3dce6 book=4f53cda18c chaos=378d296b98"
    ),
    "chaos-inline": (
        "rec=d34ee4e349 span=d4ce05df1a sum=9c88792de3 rep=a1f7cc9684 book=4f53cda18c chaos=8fab70fc33"
    ),
}


@pytest.mark.parametrize("cell", list(SCENARIOS))
def test_scenario_cell(cell):
    first = farm_digest(SCENARIOS[cell]())
    assert farm_digest(SCENARIOS[cell]()) == first, "a cell must reproduce itself"
    assert first == PINS[cell]


@pytest.mark.parametrize("cell", list(CHAOS))
def test_chaos_cell(cell):
    first = chaos_digest(CHAOS[cell])
    assert chaos_digest(CHAOS[cell]) == first, "a sweep must reproduce itself"
    assert first == PINS[cell]
