"""The scheduler's two shortcuts: dispatch on state change, one reservation
replay per machine state.

* A request served now (an edge or origin hit) frees no node and caches
  no key, so the farm raises no dispatch pass for it.  Every pass is
  raised by a queued submit, a finish, a kill, pool growth, a repair or
  the start of the run.
* ``RenderFarm._reservation`` replays ``_shadow_time`` only when the
  head's size or ``allocator.version`` changed since the last replay.

The farm contract (``test_farm_contract.py``) shows that neither
shortcut moves a record, span or allocation-log row.  The rows here
check each shortcut against the step it skips.
"""

import dataclasses

import pytest

from repro.farm import default_scenario
from repro.farm.allocator import NodeAllocator
from repro.farm.service import RenderFarm
from repro.fault.chaos import run_chaos
from tests.farm.test_farm_contract import CHAOS, SCENARIOS


@pytest.fixture
def checked_reservations(monkeypatch):
    """Compare every memoised reservation with a cold replay; count both."""
    memo, cold = RenderFarm._reservation, RenderFarm._shadow_time
    seen = {"reservations": 0, "replays": 0, "wrong": []}

    def reservation(self, job):
        got = memo(self, job)
        seen["reservations"] += 1
        want = cold(self, job)
        if got != want:
            seen["wrong"].append((self.engine.now, job.request.rid, got, want))
        return got

    def replay(self, job):
        seen["replays"] += 1
        return cold(self, job)

    monkeypatch.setattr(RenderFarm, "_reservation", reservation)
    monkeypatch.setattr(RenderFarm, "_shadow_time", replay)
    return seen


@pytest.mark.parametrize("cell", list(SCENARIOS) + list(CHAOS))
def test_memoised_reservation_equals_cold_replay(cell, checked_reservations):
    if cell in CHAOS:
        run_chaos(CHAOS[cell])
    else:
        SCENARIOS[cell]().run()
    assert checked_reservations["wrong"] == []
    assert checked_reservations["replays"] <= checked_reservations["reservations"]


def test_memo_skips_replays(checked_reservations):
    SCENARIOS["capacity"]().run()
    # 977 reservations and 700 replays when this row was written.
    assert checked_reservations["replays"] < 0.8 * checked_reservations["reservations"]


def test_every_free_list_change_bumps_the_version():
    allocator = NodeAllocator(64)
    versions = [allocator.version]
    job = allocator.alloc(16)
    versions.append(allocator.version)
    allocator.reserve((40, 41))  # a quarantined node, or an autoscale fence
    versions.append(allocator.version)
    allocator.free(job)
    versions.append(allocator.version)
    allocator.free((40, 41))
    versions.append(allocator.version)
    assert versions == sorted(set(versions))
    assert allocator.alloc(128) is None
    assert allocator.version == versions[-1]  # a failed alloc changes nothing


def test_a_moved_end_time_bumps_the_version(monkeypatch):
    """A camera move ends a ladder early: the replay's end times moved."""
    stops = []
    stop_at = RenderFarm._stop_at

    def checked(self, job, t):
        before = self.allocator.version
        unserved = stop_at(self, job, t)
        stops.append(self.allocator.version > before)
        return unserved

    monkeypatch.setattr(RenderFarm, "_stop_at", checked)
    assert SCENARIOS["ladder-edge"]().run().ladders_cancelled > 0
    assert stops and all(stops)


def test_served_now_raises_no_dispatch_pass(monkeypatch):
    passes = []
    dispatch = RenderFarm._dispatch
    monkeypatch.setattr(RenderFarm, "_dispatch", lambda self: passes.append(1) or dispatch(self))
    base = default_scenario()
    scenario = dataclasses.replace(
        base, sessions=tuple(dataclasses.replace(s, requests=s.requests * 2) for s in base.sessions)
    )
    farm = scenario.build()
    result = farm.run()
    # No crashes or pool here: one pass to start, one per queued submit
    # (a boot or a promotion) and one per finish.  The 426 cache hits
    # would add up to 426 more (508 passes when hits raised them).
    bound = 1 + 2 * len(farm.allocation_log) + farm.promotions
    assert result.cache_hits > bound
    assert len(passes) <= bound
