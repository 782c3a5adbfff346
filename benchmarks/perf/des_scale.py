"""DES-scale benchmarks: thousands of ranks through the event core.

The tentpole claim of the engine/network fast-path work is that an
``MPIWorld`` with 2048-8192 ranks runs direct-send compositing in
seconds of wall-clock, not minutes.  These benchmarks pin that down
with committed numbers:

* ``des_engine_loop``      — process dispatch through the event heap
  (``yield Delay`` fast path), thousands of live generators.
* ``des_future_resume``    — same-timestamp future handoff chains
  through the ready deque (the zero-delay resume path that used to
  round-trip through ``schedule(0.0, ...)``).
* ``des_alltoallv_4096``   — the sparse alltoallv used by ghost
  exchange at 4096 ranks: indicator allreduce + bulk isend_many.
* ``des_directsend_2048``  — a full 2048-rank direct-send compositing
  phase with virtual payloads over the torus network (the paper's
  Sec. III-B3 pattern at half-rack scale).
* ``des_footprint_2048``   — the same phase in a fresh interpreter,
  timed cold, with its peak RSS and the bytes retained per in-flight
  message at the first delivery as facts.

Workloads are deterministic (hash-derived fan-outs, fixed geometry) so
the committed numbers are reproducible on the machine that wrote them.
The direct-send entry also records the wall-clock budget the CI smoke
job enforces: the phase must simulate in well under a minute.
"""

from __future__ import annotations

from statistics import median


def _timeit(fn, repeats: int):
    # Lazy so this module and ``suite`` can be imported in either
    # order (suite imports des_scale to build the registry).
    from benchmarks.perf.suite import timed

    return timed(fn, repeats)

#: Wall-clock ceiling (seconds) for the 2048-rank direct-send frame —
#: the acceptance envelope the CI ``des-scale-smoke`` job enforces.
DIRECTSEND_WALL_BUDGET_S = 60.0

ALLTOALLV_RANKS = 4096
ALLTOALLV_FANOUT = 8

DIRECTSEND_RANKS = 2048
DIRECTSEND_GRID = (128, 128, 128)
DIRECTSEND_IMAGE = 512


def bench_des_engine_loop(repeats: int = 3) -> dict:
    """Process dispatch: 4096 generators, each yielding 25 delays."""
    from repro.sim.engine import Engine

    nprocs = 4096
    rounds = 25

    def run():
        eng = Engine()
        done = [0]

        def worker(rank: int):
            # Deterministic per-rank jitter keeps the queue populated
            # with interleaved timestamps instead of one burst.
            for r in range(rounds):
                yield float((rank * 31 + r * 7) % 997 + 1) * 1e-6
            done[0] += 1

        for rank in range(nprocs):
            eng.spawn(worker(rank), name=f"w{rank}")
        eng.run()
        return done[0]

    samples, finished = _timeit(run, repeats)
    return {
        "guard": True,
        "config": {"processes": nprocs, "rounds": rounds},
        "samples": samples,
        "facts": {
            "steps_per_second": nprocs * rounds / median(samples),
            "finished": int(finished),
        },
    }


def bench_des_future_resume(repeats: int = 3) -> dict:
    """Same-timestamp handoff: 50k-link future chain through the ready
    deque (no simulated time passes at all)."""
    from repro.sim.engine import Engine
    from repro.sim.events import Future

    links = 50_000

    def run():
        eng = Engine()
        futures = [Future(name=f"f{i}") for i in range(links + 1)]
        hops = [0]

        def relay(i: int):
            value = yield futures[i]
            hops[0] += 1
            futures[i + 1].resolve(value + 1)

        for i in range(links):
            eng.spawn(relay(i), name=f"r{i}")

        def kick():
            futures[0].resolve(0)

        eng.schedule(0.0, kick)
        eng.run()
        assert futures[links].value == links
        return hops[0]

    samples, hops = _timeit(run, repeats)
    return {
        "guard": True,
        "config": {"links": links},
        "samples": samples,
        "facts": {"resumes_per_second": links / median(samples), "hops": int(hops)},
    }


def _alltoallv_program(p: int, fanout: int):
    from repro.vmpi import VirtualPayload

    def program(ctx):
        # Knuth-hash fan-out: deterministic, scattered, asymmetric.
        dests = {(ctx.rank * 2654435761 + 97 + k * 40503) % p for k in range(fanout)}
        by_dest = {
            d: VirtualPayload(4096 + 64 * ((ctx.rank + d) % 17)) for d in dests
        }
        got = yield from ctx.alltoallv(by_dest)
        return len(got)

    return program


def bench_des_alltoallv_4096(repeats: int = 1) -> dict:
    """Sparse alltoallv at 4096 ranks (indicator allreduce + bulk send)."""
    from repro.vmpi import MPIWorld

    p = ALLTOALLV_RANKS
    program = _alltoallv_program(p, ALLTOALLV_FANOUT)

    def run():
        world = MPIWorld.for_cores(p)
        return world.run(program)

    samples, res = _timeit(run, repeats)
    return {
        "guard": True,
        "config": {"ranks": p, "fanout": ALLTOALLV_FANOUT},
        "samples": samples,
        "facts": {
            "messages": int(res.messages),
            "sim_elapsed_s": float(res.elapsed_s),
            "messages_per_wall_second": res.messages / median(samples),
        },
    }


def _directsend_schedule():
    from repro.compositing.schedule import schedule_from_geometry
    from repro.render.camera import Camera
    from repro.render.decomposition import BlockDecomposition

    cam = Camera.looking_at_volume(
        DIRECTSEND_GRID, width=DIRECTSEND_IMAGE, height=DIRECTSEND_IMAGE
    )
    dec = BlockDecomposition(DIRECTSEND_GRID, DIRECTSEND_RANKS)
    # m = n: every renderer is a compositor (the paper's baseline
    # scheme, and the densest message schedule for this geometry).
    return schedule_from_geometry(dec, cam, DIRECTSEND_RANKS)


def _directsend_program(schedule):
    from repro.compositing.directsend import COMPOSITE_TAG
    from repro.vmpi import VirtualPayload

    def program(ctx):
        batch = []
        for msg in schedule.outgoing(ctx.rank):
            dest = schedule.compositor_rank(msg.tile)
            if dest == ctx.rank:
                continue
            batch.append((dest, VirtualPayload(msg.nbytes)))
        reqs = ctx.isend_many(batch, COMPOSITE_TAG) if batch else []
        if ctx.rank < schedule.num_compositors:
            expected = [
                m for m in schedule.incoming(ctx.rank) if m.src != ctx.rank
            ]
            for _ in range(len(expected)):
                yield from ctx.recv(tag=COMPOSITE_TAG)
        yield from ctx.waitall(reqs)
        return None

    return program


def bench_des_directsend_2048(repeats: int = 1) -> dict:
    """A 2048-rank direct-send compositing phase, virtual payloads.

    The schedule is built once outside the timed region — in the real
    pipeline it comes from the frame-plan cache — so the number is the
    event-core cost of the communication phase itself.
    """
    from repro.vmpi import MPIWorld

    schedule = _directsend_schedule()
    program = _directsend_program(schedule)

    def run():
        world = MPIWorld.for_cores(DIRECTSEND_RANKS)
        return world.run(program)

    samples, res = _timeit(run, repeats)
    return {
        "guard": True,
        "config": {
            "ranks": DIRECTSEND_RANKS,
            "grid": DIRECTSEND_GRID[0],
            "image": DIRECTSEND_IMAGE,
            "compositors": DIRECTSEND_RANKS,
        },
        "samples": samples,
        "facts": {
            "wall_budget_s": DIRECTSEND_WALL_BUDGET_S,
            "schedule_messages": int(schedule.total_messages),
            "sim_elapsed_s": float(res.elapsed_s),
            "messages": int(res.messages),
        },
    }


#: The 2048-rank direct-send phase twice: once for the peak RSS, once
#: under tracemalloc with a probe between the last t = 0 send and the
#: first delivery, when every message of the phase is in flight.  The
#: probe reads the bytes the run allocated and still holds, per message.
_DES_FOOTPRINT = """
import gc, json, resource, tracemalloc
from benchmarks.perf.des_scale import (
    DIRECTSEND_RANKS, _directsend_program, _directsend_schedule)
from repro.vmpi import MPIWorld

program = _directsend_program(_directsend_schedule())
reading = {}

def probe(engine):
    reading["bytes"] = tracemalloc.get_traced_memory()[0] - reading["base"]
    reading["in_flight"] = engine.pending_events

def probed(ctx):
    if ctx.rank == 0:
        ctx.engine.schedule_at(1e-12, lambda: probe(ctx.engine))
    return (yield from program(ctx))

res = MPIWorld.for_cores(DIRECTSEND_RANKS).run(program)
peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
world = MPIWorld.for_cores(DIRECTSEND_RANKS)
gc.collect()
gc.disable()
tracemalloc.start()
reading["base"] = tracemalloc.get_traced_memory()[0]
world.run(probed)
tracemalloc.stop()
assert reading["in_flight"] == res.messages
print(json.dumps({
    "messages": res.messages,
    "peak_rss_mb": round(peak_rss_mb, 1),
    "bytes_per_message": round(reading["bytes"] / reading["in_flight"]),
}))
"""


def bench_des_footprint_2048(repeats: int = 2) -> dict:
    """The 2048-rank direct-send phase cold, interpreter start included."""
    from benchmarks.perf.suite import run_fresh

    samples, facts = _timeit(lambda: run_fresh(_DES_FOOTPRINT), repeats)
    return {
        "guard": True,
        "config": {
            "ranks": DIRECTSEND_RANKS,
            "grid": DIRECTSEND_GRID[0],
            "image": DIRECTSEND_IMAGE,
            "compositors": DIRECTSEND_RANKS,
        },
        "samples": samples,
        "facts": facts,
    }


DES_BENCHMARKS = {
    "des_engine_loop": bench_des_engine_loop,
    "des_future_resume": bench_des_future_resume,
    "des_alltoallv_4096": bench_des_alltoallv_4096,
    "des_directsend_2048": bench_des_directsend_2048,
    "des_footprint_2048": bench_des_footprint_2048,
}
