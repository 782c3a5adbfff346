"""Fault-layer overhead guard: the no-fault hot path must stay hot.

The fault subsystem's contract is that *installing* an empty
:class:`~repro.fault.plan.FaultPlan` costs (almost) nothing: the
injector is attached to the message board even when the plan is empty
— that is exactly what makes the overhead measurable — but every hook
is a flag check that falls through.  This benchmark times the same
512-rank direct-send compositing phase twice, without and with the
installed-but-empty fault layer, and records the fractional overhead.

The regression guard fails when ``overhead_frac`` exceeds
``max_overhead_frac`` (5%), independent of the machine the baseline
was written on — best-of-N on both sides, so additive timing noise
cancels instead of masquerading as overhead.
"""

from __future__ import annotations

FAULT_RANKS = 512
FAULT_GRID = (96, 96, 96)
FAULT_IMAGE = 256

#: Fail the guard when the installed-empty fault layer slows the
#: direct-send phase by more than this fraction.
MAX_OVERHEAD_FRAC = 0.05


def _phase():
    from benchmarks.perf.des_scale import _directsend_program
    from repro.compositing.schedule import schedule_from_geometry
    from repro.render.camera import Camera
    from repro.render.decomposition import BlockDecomposition

    cam = Camera.looking_at_volume(FAULT_GRID, width=FAULT_IMAGE, height=FAULT_IMAGE)
    dec = BlockDecomposition(FAULT_GRID, FAULT_RANKS)
    schedule = schedule_from_geometry(dec, cam, FAULT_RANKS)
    return _directsend_program(schedule)


def bench_fault_overhead(repeats: int = 9) -> dict:
    """Direct-send phase: bare engine vs installed empty fault plan.

    The two arms are timed *interleaved* (plain, armed, plain, armed,
    ...) rather than back to back: host-load and frequency drift then
    hit both arms equally instead of showing up as phantom overhead,
    and best-of-N on each side strips the additive noise that remains.
    """
    import gc
    import time

    from repro.fault.plan import FaultPlan
    from repro.vmpi import MPIWorld

    program = _phase()

    def plain():
        return MPIWorld.for_cores(FAULT_RANKS).run(program)

    def armed():
        return MPIWorld.for_cores(FAULT_RANKS).run(program, fault=FaultPlan.none())

    plain_res = plain()  # warmup both arms, untimed
    armed_res = armed()
    assert armed_res.elapsed_s == plain_res.elapsed_s, (
        "empty fault plan changed the simulated timeline"
    )
    plain_times: list[float] = []
    armed_times: list[float] = []
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            plain()
            plain_times.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            armed()
            armed_times.append(time.perf_counter() - t0)
    finally:
        if gc_was_enabled:
            gc.enable()
    return {
        "guard": True,
        "config": {"ranks": FAULT_RANKS, "grid": FAULT_GRID[0], "image": FAULT_IMAGE},
        "samples": plain_times,
        "facts": {
            "armed_best_seconds": min(armed_times),
            "overhead_frac": min(armed_times) / min(plain_times) - 1.0,
            "max_overhead_frac": MAX_OVERHEAD_FRAC,
            "sim_elapsed_s": float(plain_res.elapsed_s),
        },
    }


FAULT_BENCHMARKS = {"fault_overhead": bench_fault_overhead}
