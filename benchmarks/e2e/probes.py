"""Direct probes of layer entry points, tracing off.

Each probe calls one public function of one layer at the size of the
workload that owns it (``spec.PROBES`` names the owners), so a layer's
own rate can be read beside its share of the end-to-end time.  Probes
run after the traced repetition, on the already set-up workload.
"""

from __future__ import annotations

import resource
import time

from repro.compositing.schedule import clear_schedule_cache, schedule_from_geometry
from repro.core import FramePlanCache
from repro.data import write_vh1_netcdf
from repro.model import DATASETS, FrameModel
from repro.model.validation import fidelity_report
from repro.network.desnet import DESNetwork
from repro.pio import IOHints, collective_read_blocks, plan_two_phase
from repro.render.decomposition import BlockDecomposition
from repro.render.image import blank_image, composite_over
from repro.render.raycast import render_block
from repro.render.volume import VolumeBlock
from repro.sim.engine import Engine
from repro.vmpi import MPIWorld

import workloads


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def _median_time(fn, reps: int = 3) -> float:
    return sorted(_timed(fn)[0] for _ in range(reps))[reps // 2]


# -- sim.engine / network.desnet / vmpi.runner / compositing.schedule --


def _engine_events(n: int = 200_000) -> float:
    """Schedule n callbacks at scattered times, cancel every 4th, run."""
    eng = Engine()
    fired = [0]

    def tick():
        fired[0] += 1

    events = [eng.schedule(float((i * 7919) % 10007) * 1e-6, tick) for i in range(n)]
    for ev in events[::4]:
        ev.cancel()
    eng.run()
    if fired[0] != n - len(events[::4]):
        raise RuntimeError(f"engine fired {fired[0]} of {n} events, a quarter cancelled")
    return n


def _engine_resumes(nprocs: int = 4096, rounds: int = 25) -> int:
    """Generator dispatch through ``yield delay`` with interleaved times."""
    eng = Engine()

    def worker(rank: int):
        for r in range(rounds):
            yield float((rank * 31 + r * 7) % 997 + 1) * 1e-6

    for rank in range(nprocs):
        eng.spawn(worker(rank), name=f"w{rank}")
    eng.run()
    return nprocs * rounds


def _desnet_transfers(w: workloads.CompositeDES) -> float:
    """The workload's own send batches through ``transfer_many`` alone
    (no matching, no rank coroutines), drained by the engine."""
    world = MPIWorld.for_cores(w.size["ranks"])
    batches = []
    for rank in range(world.nprocs):
        batch = [
            (w.schedule.compositor_rank(m.tile), m.nbytes)
            for m in w.schedule.outgoing(rank)
            if w.schedule.compositor_rank(m.tile) != rank
        ]
        if batch:
            batches.append((rank, batch))

    def run():
        eng = Engine()
        net = DESNetwork(eng, world.topology, world.mapping, world.link)
        for rank, batch in batches:
            net.transfer_many(rank, batch)
        eng.run()
        return net.messages_sent

    seconds, sent = _timed(run)
    return sent / seconds


def composite_probes(w: workloads.CompositeDES) -> dict[str, float]:
    s = w.size
    shape = (s["grid"],) * 3
    camera = workloads.camera_for(w.seed, shape, s["image"])

    def build_schedule():
        clear_schedule_cache()
        return schedule_from_geometry(BlockDecomposition(shape, s["ranks"]), camera, s["ranks"])

    build_s, schedule = _timed(build_schedule)
    events_s, events = _timed(_engine_events)
    resumes_s, resumes = _timed(_engine_resumes)
    return {
        "sim.engine.events_per_s": events / events_s,
        "sim.engine.resumes_per_s": resumes / resumes_s,
        "network.desnet.transfers_per_s": _desnet_transfers(w),
        "vmpi.runner.world_build_s": _median_time(lambda: MPIWorld.for_cores(s["ranks"])),
        "compositing.schedule.build_s": build_s,
        "compositing.schedule.messages": schedule.total_messages,
    }


# -- core.plan / render / pio / formats --------------------------------


def frame_probes(w: workloads.FrameFunctional) -> dict[str, float]:
    r = w.renderer()
    nprocs = r.world.nprocs
    plan_args = (
        r.camera, w.grid, nprocs, r.step, r.ghost, r.ghost_mode,
        r.policy.compositors_for(nprocs),
    )
    clear_schedule_cache()
    cache = FramePlanCache()
    cold_s, plan = _timed(lambda: cache.plan_for(*plan_args))
    warm_s = _median_time(lambda: cache.plan_for(*plan_args), reps=5)

    hints = IOHints()
    ranges = [
        rng for start, count in plan.read_blocks
        for rng in w.handle.subarray_ranges(start, count)
    ]
    plan_s, io_plan = _timed(lambda: plan_two_phase(ranges, hints, w.handle.file_size()))
    read_s, (arrays, report) = _timed(
        lambda: collective_read_blocks(w.handle, plan.read_blocks, hints)
    )

    def render_all():
        partials = []
        for rank, block in enumerate(plan.decomposition.blocks()):
            _rs, _rc, ghost_lo = plan.ghost_specs[rank]
            vb = VolumeBlock(arrays[rank], w.grid, block.start, block.count, ghost_lo)
            partials.append(
                render_block(r.camera, vb, r.transfer, r.step, plan=plan.ray_plans[rank])
            )
        return [p for p in partials if p is not None]

    render_s, partials = _timed(render_all)
    samples = sum(p.samples for p in partials)
    canvas = blank_image(r.camera.width, r.camera.height)
    over_s = _median_time(lambda: composite_over(canvas, partials))
    write_s, ncfile = _timed(lambda: write_vh1_netcdf(w.model))
    return {
        "core.plan.cold_s": cold_s,
        "core.plan.warm_s": warm_s,
        "render.raycast.samples_per_s": samples / render_s,
        "render.raycast.samples": samples,
        "render.image.fragments_per_s": len(partials) / over_s,
        "pio.twophase.plan_s": plan_s,
        "pio.twophase.accesses": io_plan.num_accesses,
        "pio.twophase.density": io_plan.density,
        "pio.reader.read_MBps": report.requested_bytes / 1e6 / read_s,
        "formats.netcdf.write_s": write_s,
        "formats.netcdf.bytes": ncfile.store.size(),
    }


# -- sim.parallel ------------------------------------------------------


def sharded_probes(w: workloads.ShardedDES, result, host_s: float) -> dict[str, float]:
    """The in-process sharded run over the monolithic run of the same
    frame (ROADMAP target: <= 1.5), and the CPU the two forked workers
    of a ``workers=2`` run burn."""
    ranks = w.size["ranks"]
    mono_s = _timed(lambda: w.run_world(ranks, w.program, 0))[0]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    w.run_world(ranks, w.program, 2)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "sim.parallel.w1_over_mono": host_s / mono_s,
        "sim.parallel.cpu_s": (after.ru_utime + after.ru_stime)
        - (before.ru_utime + before.ru_stime),
        "vmpi.comm.msgs_per_host_s": result.messages / host_s,
    }


# -- farm / model ------------------------------------------------------


def farm_probes(result, host_s: float) -> tuple[dict[str, float], list]:
    """Farm counters of the untraced repetition, the model's cost, and
    the model's stated error against the paper's 16 anchors."""
    fm = FrameModel(DATASETS["1120"])
    report = fidelity_report()
    within = report.within_factor_2
    return {
        "farm.service.requests_per_s": result.arrivals / host_s,
        "farm.service.rendered": result.rendered,
        "farm.service.cache_hits": result.cache_hits,
        "farm.service.coalesced": result.coalesced,
        "model.estimate_s": _median_time(lambda: fm.estimate(16384), reps=5),
        "model.anchor_log2_err_mean": report.mean_log2_error,
        "model.anchor_log2_err_max": report.max_log2_error,
    }, [("model_anchors_within_2x", within == 1.0, f"{within:.3f} of {len(report.anchors)}")]


def run(w: workloads.Workload, result, host_s: float) -> tuple[dict[str, float], list]:
    """This workload's probes: (metrics, extra oracle checks).

    ``result`` and ``host_s`` come from the untraced repetition the
    worker made just before the traced one.
    """
    if isinstance(w, workloads.FrameFunctional):
        return frame_probes(w), []
    if isinstance(w, workloads.ShardedDES):
        return sharded_probes(w, result, host_s), []
    if isinstance(w, workloads.CompositeDES):
        return {
            **composite_probes(w),
            "vmpi.comm.msgs_per_host_s": result.messages / host_s,
        }, []
    if isinstance(w, workloads.AlltoallvDES):
        return {"vmpi.comm.msgs_per_host_s": result.messages / host_s}, []
    if isinstance(w, workloads.FarmCapacity):
        return farm_probes(result, host_s)
    return {}, []
