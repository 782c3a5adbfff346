"""The pipelined campaign driver vs the sequential oracle.

The tentpole invariant: at every prefetch depth, for every format,
camera path, engine backend, and fault plan, the pipelined renderer
produces frames *bitwise identical* to ``render_time_series`` — images,
per-frame timings, message counts.  Pipelining only changes the
campaign clock, and the campaign clock itself must reconcile:
``overlap_saved_s == sequential_s - makespan_s``, spans in a lane never
overlap, depth 0 reproduces the sequential makespan exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import ParallelVolumeRenderer, PipelinedTimeSeriesRenderer, render_time_series
from repro.core.timeseries import campaign_trace, simulate_pipeline
from repro.data import SupernovaModel, extract_variable_raw, write_vh1_netcdf
from repro.fault import FaultPlan, IOStraggler, NodeCrash
from repro.pio import IOHints, NetCDFHandle, RawHandle
from repro.render import Camera, TransferFunction
from repro.utils.errors import ConfigError
from repro.vmpi import MPIWorld, ParallelConfig

GRID = (12, 12, 12)
STEPS = 3


def _handles(fmt: str):
    out = []
    for t in range(STEPS):
        model = SupernovaModel(GRID, seed=5, time=0.3 + 0.2 * t)
        if fmt == "netcdf":
            out.append(NetCDFHandle(write_vh1_netcdf(model), "vx"))
        else:
            out.append(RawHandle(extract_variable_raw(model, "vx")))
    return out


@pytest.fixture(scope="module")
def netcdf_handles():
    return _handles("netcdf")


@pytest.fixture(scope="module")
def raw_handles():
    return _handles("raw")


def _renderer(**kwargs):
    cam = Camera.looking_at_volume(GRID, width=24, height=24)
    tf = TransferFunction.supernova()
    defaults = dict(step=0.9, hints=IOHints(cb_buffer_size=4096, cb_nodes=2))
    defaults.update(kwargs)
    return ParallelVolumeRenderer(MPIWorld.for_cores(8), cam, tf, **defaults)


def assert_frames_identical(pipelined, oracle):
    assert len(pipelined.frames) == len(oracle.frames)
    for i, (p, s) in enumerate(zip(pipelined.frames, oracle.frames)):
        assert np.array_equal(p.image, s.image), f"frame {i} image differs"
        assert p.timing == s.timing, f"frame {i} timing differs"
        assert p.messages == s.messages
        assert p.bytes_sent == s.bytes_sent


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("depth", [0, 1, 2])
    @pytest.mark.parametrize("fmt", ["netcdf", "raw"])
    def test_orbit_campaign_matches_oracle(self, depth, fmt, netcdf_handles, raw_handles):
        handles = netcdf_handles if fmt == "netcdf" else raw_handles
        renderer = _renderer()
        oracle = render_time_series(renderer, handles, orbit_degrees_per_frame=25.0)
        res = PipelinedTimeSeriesRenderer(renderer, prefetch_depth=depth).render(
            handles, orbit_degrees_per_frame=25.0
        )
        assert_frames_identical(res, oracle)
        assert res.accounting_failures() == []

    def test_fixed_camera_matches_oracle(self, netcdf_handles):
        renderer = _renderer()
        oracle = render_time_series(renderer, netcdf_handles)
        res = PipelinedTimeSeriesRenderer(renderer, prefetch_depth=2).render(netcdf_handles)
        assert_frames_identical(res, oracle)

    def test_camera_factory_matches_oracle(self, netcdf_handles):
        cams = [
            Camera.looking_at_volume(GRID, width=24, height=24, azimuth_deg=a)
            for a in (0.0, 120.0, 240.0)
        ]
        renderer = _renderer()
        oracle = render_time_series(renderer, netcdf_handles, camera_factory=lambda i: cams[i])
        res = PipelinedTimeSeriesRenderer(renderer, prefetch_depth=1).render(
            netcdf_handles, camera_factory=lambda i: cams[i]
        )
        assert_frames_identical(res, oracle)

    def test_under_fault_plan(self, netcdf_handles):
        """Prefetch must not perturb fault behavior: the frame program is
        byte-for-byte the same, so stragglers and crashes land identically."""
        fault = FaultPlan(
            seed=7,
            node_crashes=(NodeCrash(1.0, 1),),
            io_stragglers=(IOStraggler(0, 0.5),),
        )
        renderer = _renderer(fault=fault)
        oracle = render_time_series(renderer, netcdf_handles, orbit_degrees_per_frame=15.0)
        for depth in (0, 1, 2):
            res = PipelinedTimeSeriesRenderer(renderer, prefetch_depth=depth).render(
                netcdf_handles, orbit_degrees_per_frame=15.0
            )
            assert_frames_identical(res, oracle)
            assert res.accounting_failures() == []

    def test_with_parallel_engine(self, netcdf_handles):
        """Coexists with the sharded conservative-parallel DES backend:
        pipelined-sharded matches sequential-sharded bitwise (and both
        match the serial engine's images pixel for pixel)."""
        serial = _renderer()
        sharded = _renderer(parallel=ParallelConfig(workers=2))
        oracle = render_time_series(sharded, netcdf_handles, orbit_degrees_per_frame=20.0)
        res = PipelinedTimeSeriesRenderer(sharded, prefetch_depth=1).render(
            netcdf_handles, orbit_degrees_per_frame=20.0
        )
        assert_frames_identical(res, oracle)
        serial_res = render_time_series(serial, netcdf_handles, orbit_degrees_per_frame=20.0)
        for p, s in zip(res.frames, serial_res.frames):
            assert np.array_equal(p.image, s.image)

    def test_camera_restored_after_campaign(self, netcdf_handles):
        renderer = _renderer()
        before = renderer.camera
        PipelinedTimeSeriesRenderer(renderer, prefetch_depth=1).render(
            netcdf_handles, orbit_degrees_per_frame=30.0
        )
        assert renderer.camera is before

    def test_plan_cache_hits_on_every_frame(self, netcdf_handles):
        """The prefetch warms the plan cache; the render is a guaranteed hit."""
        renderer = _renderer()
        PipelinedTimeSeriesRenderer(renderer, prefetch_depth=2).render(
            netcdf_handles, orbit_degrees_per_frame=25.0
        )
        assert renderer.plan_cache.hits >= STEPS


class TestCampaignClock:
    def test_depth_zero_reproduces_sequential_makespan(self, netcdf_handles):
        renderer = _renderer()
        res = PipelinedTimeSeriesRenderer(renderer, prefetch_depth=0).render(netcdf_handles)
        assert res.makespan_s == pytest.approx(res.sequential_s)
        assert res.overlap_saved_s == pytest.approx(0.0)

    def test_overlap_reconciles(self, netcdf_handles):
        renderer = _renderer()
        res = PipelinedTimeSeriesRenderer(renderer, prefetch_depth=1).render(netcdf_handles)
        assert res.overlap_saved_s == pytest.approx(res.sequential_s - res.makespan_s)
        assert 0.0 <= res.overlap_saved_s <= res.sequential_s
        assert res.speedup >= 1.0
        assert res.accounting_failures() == []

    def test_makespan_is_wall_clock_not_stage_sum(self, netcdf_handles):
        """An I/O-heavy campaign's makespan beats the per-stage sums."""
        renderer = _renderer()
        res = PipelinedTimeSeriesRenderer(renderer, prefetch_depth=1).render(
            netcdf_handles, orbit_degrees_per_frame=20.0
        )
        # Still bounded below by the serialized I/O plus the last compute.
        io = sum(s.io_demand_s for s in res.timeline.slots)
        assert res.makespan_s >= io
        assert res.makespan_s <= res.sequential_s + 1e-9

    def test_rejects_empty_campaign(self):
        renderer = _renderer()
        with pytest.raises(ConfigError):
            PipelinedTimeSeriesRenderer(renderer).render([])

    def test_rejects_bad_depth_and_discipline(self):
        renderer = _renderer()
        with pytest.raises(ConfigError):
            PipelinedTimeSeriesRenderer(renderer, prefetch_depth=-1)
        with pytest.raises(ConfigError):
            PipelinedTimeSeriesRenderer(renderer, discipline="psychic")


class TestSimulatedPipeline:
    def _random_demands(self, seed, n=6):
        rng = np.random.default_rng(seed)
        return list(rng.uniform(0.1, 2.0, n)), list(rng.uniform(0.1, 2.0, n))

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("discipline", ["fifo", "fair"])
    def test_schedule_invariants_hold(self, seed, discipline):
        io, rc = self._random_demands(seed)
        for depth in (0, 1, 2, 3):
            tl = simulate_pipeline(io, rc, depth, discipline)
            assert tl.failures() == [], f"depth {depth}: {tl.failures()}"
            # Work conservation: one storage server, one compute lane.
            assert tl.makespan_s >= sum(io) - 1e-9
            assert tl.makespan_s >= sum(rc) - 1e-9
            assert tl.makespan_s <= sum(io) + sum(rc) + 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_depth_monotonicity_fifo(self, seed):
        io, rc = self._random_demands(seed)
        spans = [simulate_pipeline(io, rc, d).makespan_s for d in (0, 1, 2, 3)]
        for a, b in zip(spans, spans[1:]):
            assert b <= a + 1e-9
        assert spans[0] == pytest.approx(sum(io) + sum(rc))

    def test_depth_one_overlaps_io_bound(self):
        # Equal frames, io = 2 * compute: fifo pins makespan at N*io + rc.
        tl = simulate_pipeline([2.0] * 5, [1.0] * 5, 1)
        assert tl.makespan_s == pytest.approx(11.0)
        tl0 = simulate_pipeline([2.0] * 5, [1.0] * 5, 0)
        assert tl0.makespan_s == pytest.approx(15.0)

    def test_depth_beyond_two_buys_nothing_fifo(self):
        io, rc = [2.0, 1.5, 2.5, 1.0], [1.0, 1.2, 0.8, 1.1]
        assert simulate_pipeline(io, rc, 2).makespan_s == pytest.approx(
            simulate_pipeline(io, rc, 8).makespan_s
        )

    def test_fair_sharing_is_pessimistic(self):
        """Equal-share contention can only slow the blocking read down."""
        io, rc = [1.0] * 4, [1.0] * 4
        fifo = simulate_pipeline(io, rc, 2, "fifo").makespan_s
        fair = simulate_pipeline(io, rc, 2, "fair").makespan_s
        assert fair >= fifo - 1e-9

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            simulate_pipeline([1.0, 2.0], [1.0], 1)


class TestCampaignTraceSpans:
    def test_lanes_never_overlap_within_a_stage(self, netcdf_handles):
        """Per-lane spans are disjoint: reads serialize on the storage
        station, computes serialize on the frame loop."""
        renderer = _renderer()
        res = PipelinedTimeSeriesRenderer(renderer, prefetch_depth=2).render(
            netcdf_handles, orbit_degrees_per_frame=25.0
        )
        lanes: dict[int, list] = {}
        for span in res.campaign_trace.spans:
            lanes.setdefault(span.rank, []).append(span)
        assert len(lanes) == 2  # io lane + compute lane
        for spans in lanes.values():
            spans.sort(key=lambda s: s.t0)
            for a, b in zip(spans, spans[1:]):
                assert b.t0 >= a.t1 - 1e-9, f"{a.name} overlaps {b.name}"

    def test_synthetic_trace_matches_timeline(self):
        tl = simulate_pipeline([1.0, 2.0, 1.5], [0.5, 0.7, 0.6], 1)
        tr = campaign_trace(tl)
        assert len(tr.spans) == 2 * len(tl.slots)
        assert max(s.t1 for s in tr.spans) == pytest.approx(tl.makespan_s)


def _golden_case(k: int) -> tuple[list[float], list[float], int, str]:
    """Seeded case ``k`` of :data:`GOLDEN_CLOCK`: the demand kind cycles
    float / integer / zero-laced / equal frames, the depth 0-4, and the
    first 20 cases run fifo, the last 20 fair."""
    rng = np.random.default_rng(k)
    n = int(rng.integers(1, 9))
    kind = k % 4
    if kind == 0:
        io, rc = rng.uniform(0.0, 3.0, n), rng.uniform(0.0, 3.0, n)
    elif kind == 1:
        io, rc = rng.integers(0, 4, n).astype(float), rng.integers(0, 4, n).astype(float)
    elif kind == 2:
        io = rng.uniform(0.0, 2.0, n) * (rng.random(n) < 0.5)
        rc = rng.uniform(0.0, 2.0, n) * (rng.random(n) < 0.5)
    else:
        io, rc = np.full(n, 1.5), np.full(n, float(rng.integers(1, 4)))
    return io.tolist(), rc.tolist(), (k // 4) % 5, ("fifo", "fair")[k // 20]


def _clock_digest(timeline) -> str:
    """sha256 (first 16 hex digits) of every slot's fields, floats as
    ``float.hex``: equal digests mean bitwise-equal timelines."""
    fields = [
        v.hex() if isinstance(v, float) else str(v)
        for s in timeline.slots
        for v in dataclasses.astuple(s)
    ]
    return hashlib.sha256("|".join(fields).encode()).hexdigest()[:16]


#: Digests of the 40 seeded cases, generated by the engine-driven
#: ``simulate_pipeline`` this recurrence replaced (one DES run per case).
GOLDEN_CLOCK = {
    0: "49ed6de82256b6fa",
    1: "b129b4785a57fcce",
    2: "6fcea223b60be1c6",
    3: "8d4847879c781da7",
    4: "0cb722ce15ec6111",
    5: "abbe11e98eab0814",
    6: "ecc82833106d309b",
    7: "18e1ed9dcdb2aa26",
    8: "2e30e107965858e0",
    9: "d9425c6d8c0a4973",
    10: "1d9c5b2e68be9147",
    11: "911765308f8d89d3",
    12: "0b08989519bbb6a6",
    13: "1a98e5252b5a24b3",
    14: "aa4a59376ef732ff",
    15: "b13c715d13fb753d",
    16: "b68dfa7b657829f6",
    17: "110b1ad1626c34c9",
    18: "45c7b27a5515ef92",
    19: "30195d0231bb2a2e",
    20: "cff6d6c4e8117ecc",
    21: "a818acf6ea41bf9d",
    22: "c3c644b0785d4c1a",
    23: "e3c1331437c01ecd",
    24: "ee1d65e6128b3f72",
    25: "903c3074897c3d7a",
    26: "25ada32c6011232e",
    27: "e3c1331437c01ecd",
    28: "dba5e012a72cdcf5",
    29: "d3bfaae0ad2a8f4f",
    30: "eed344538b745966",
    31: "c95c02e853738e73",
    32: "64baff32fe5a7406",
    33: "70f0b562e6b1d5b1",
    34: "c684d24a65efb25b",
    35: "d3cc32450dafc9f2",
    36: "a11cf9472a8730da",
    37: "ca131052b6512256",
    38: "3d602548a6754c5d",
    39: "ffa18996f2991092",
}


@pytest.mark.parametrize("k", range(40))
def test_clock_matches_golden_table(k):
    io, rc, depth, discipline = _golden_case(k)
    assert _clock_digest(simulate_pipeline(io, rc, depth, discipline)) == GOLDEN_CLOCK[k]


def test_fair_stall_lets_a_same_instant_submission_go_first():
    """At ~16736 s read 10, alone on the store, is due at ``now`` again
    with 1.8e-12 s left, and frame 8's compute ends at that instant.
    The engine-driven clock refired until read 13's submission made k = 2
    and moved the completion on; retiring read 10 at once instead moves
    this timeline.  Digest from the engine-driven clock."""
    io = [3e-12, 3e-12, 3199.8986394958274, 4710.545975795373, 1.0, 0.0, 0.0,
          0.0, 0.0, 0.0, 2.0, 1e-12, 3e-12, 1e-12]
    rc = [0.0, 0.0, 0.0, 3e-12, 3e-12, 8822.63566689796, 0.0, 3e-12, 2.0,
          0.0, 0.0, 0.0, 0.0, 0.0]
    assert _clock_digest(simulate_pipeline(io, rc, 4, "fair")) == "723c68616fea85f9"


def test_fair_clock_terminates_at_sub_ulp_remainders():
    """Near t = 2e4 s a read with ~1e-12 s left is due at ``now`` again
    (``now + remaining * k == now``); the fair clock once refired there
    forever.  Run in a child so a regression fails instead of hanging."""
    code = (
        "from repro.core.timeseries import simulate_pipeline as s\n"
        "a = ([17993.499, 40705.887], [0.001, 18175.38], 1)\n"
        "print(s(*a, 'fair').makespan_s, s(*a, 'fifo').makespan_s)\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=30, check=True,
    )
    fair, fifo = map(float, out.stdout.split())
    assert math.isfinite(fair) and fair >= fifo
