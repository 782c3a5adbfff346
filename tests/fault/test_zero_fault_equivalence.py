"""The pinned invariant: an empty FaultPlan changes nothing, bitwise.

Installing ``FaultPlan.none()`` attaches the injector to the message
board (that is what makes its overhead measurable), but every hook is a
flag check that falls through — so images, timings, message counts,
traces, and farm ledgers must be *identical* to a run with no fault
layer at all.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.pipeline import ParallelVolumeRenderer
from repro.data import SupernovaModel, write_vh1_netcdf
from repro.farm import FarmFaults, selftest_scenario
from repro.fault import FaultPlan
from repro.obs import Tracer
from repro.pio import NetCDFHandle
from repro.render.camera import Camera
from repro.render.transfer import TransferFunction
from repro.vmpi.runner import MPIWorld

GRID = (24, 24, 24)


@pytest.fixture(scope="module")
def scene():
    model = SupernovaModel(GRID, seed=5, time=0.5)
    handle = NetCDFHandle(write_vh1_netcdf(model), "vx")
    camera = Camera.looking_at_volume(GRID, width=48, height=48)
    tf = TransferFunction.supernova(*model.value_range("vx"))
    return handle, camera, tf


def _frame(scene, fault, tracer=None):
    handle, camera, tf = scene
    renderer = ParallelVolumeRenderer(
        MPIWorld.for_cores(8), camera, tf, step=0.8, fault=fault, tracer=tracer
    )
    return renderer.render_frame(handle)


class TestPipelineEquivalence:
    def test_image_and_accounting_bitwise_identical(self, scene):
        base = _frame(scene, None)
        empty = _frame(scene, FaultPlan.none())
        assert np.array_equal(base.image, empty.image)
        assert base.timing == empty.timing
        assert base.messages == empty.messages
        assert base.bytes_sent == empty.bytes_sent

    def test_no_fault_report_on_empty_plan(self, scene):
        empty = _frame(scene, FaultPlan.none())
        assert empty.fault is None

    def test_trace_bitwise_identical(self, scene):
        t0, t1 = Tracer(enabled=True), Tracer(enabled=True)
        _frame(scene, None, tracer=t0)
        _frame(scene, FaultPlan.none(), tracer=t1)
        assert t0.counters == t1.counters
        assert len(t0.spans) == len(t1.spans)
        for a, b in zip(t0.spans, t1.spans):
            assert (a.rank, a.name, a.cat, a.t0, a.t1) == (
                b.rank, b.name, b.cat, b.t0, b.t1
            )


class TestFarmEquivalence:
    def test_inactive_farm_faults_bitwise_identical(self):
        base = selftest_scenario().run()
        armed = dataclasses.replace(
            selftest_scenario(), fault=FarmFaults(crash_rate_per_node_hour=0.0)
        ).run()
        assert base.makespan_s == armed.makespan_s
        assert armed.faults is None
        assert [
            (r.t_arrive, r.t_hold, r.t_serve, r.t_done, r.nodes, r.cache_hit)
            for r in base.records
        ] == [
            (r.t_arrive, r.t_hold, r.t_serve, r.t_done, r.nodes, r.cache_hit)
            for r in armed.records
        ]
        assert base.util_node_seconds == armed.util_node_seconds
        assert base.backfilled == armed.backfilled


class TestWorldEquivalence:
    def test_collectives_unchanged_under_empty_plan(self):
        def program(ctx):
            total = yield from ctx.allreduce(ctx.rank + 1)
            yield from ctx.barrier()
            return total

        base = MPIWorld.for_cores(16).run(program)
        empty = MPIWorld.for_cores(16).run(program, fault=FaultPlan.none())
        assert base.values == empty.values
        assert base.elapsed_s == empty.elapsed_s
        assert base.messages == empty.messages
        assert empty.fault is not None  # report exists...
        assert empty.fault.crashes == 0  # ...and records nothing
