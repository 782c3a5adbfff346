"""Parallel-DES benchmarks: sharded conservative windows at 8K-32K ranks.

The tentpole claim of the parallel backend is that the *full-fidelity*
direct-send frame — every compositing message a real DES event, no
analytic shortcut — stays affordable past 2048 ranks by sharding the
engine across worker processes under conservative safe windows.  These
benchmarks pin that down with committed numbers:

* ``parallel_directsend_2048_w2``  — the 2048-rank frame through the
  2-worker backend (the CI ``parallel-des-smoke`` envelope).
* ``parallel_strong_scaling_8192`` — the 8192-rank m=n frame at
  1/2/4/8 workers: the strong-scaling curve of the backend itself.
* ``parallel_directsend_32768``    — the full 32768-rank m=n frame
  (~2.05M simulated messages), the paper's Fig. 8 scale.
* ``parallel_directsend_32768_m2048`` — the same frame with the
  compositor count limited to m=2048 (the paper's mitigation); its
  facts record the m=n / limited-m simulated-time ratio.

Results are bitwise identical across worker counts by construction
(see DESIGN.md §12), so the committed simulated-time numbers are
machine-independent; the wall-clock numbers are honest measurements on
whatever host wrote the entry, whose CPU count is its ``host.cpus``.
On a single-core host the worker processes time-share and the curve
records the synchronization overhead rather than a speedup.
"""

from __future__ import annotations

import time

#: Wall-clock ceiling (seconds) enforced by the CI parallel-des-smoke
#: job for the 2-worker 2048-rank frame.
PARALLEL_SMOKE_BUDGET_S = 120.0

#: Wall-clock ceiling for the full 32768-rank m=n frame — the
#: acceptance envelope of the 32K tentpole run.
PARALLEL_32K_WALL_BUDGET_S = 600.0

SCALING_RANKS = 8192
SCALING_WORKERS = (1, 2, 4, 8)

RANKS_32K = 32768
LIMITED_M = 2048

GRID = (128, 128, 128)
IMAGE = 512


def _schedule(ranks: int, m: int):
    from repro.compositing.schedule import schedule_from_geometry
    from repro.render.camera import Camera
    from repro.render.decomposition import BlockDecomposition

    cam = Camera.looking_at_volume(GRID, width=IMAGE, height=IMAGE)
    dec = BlockDecomposition(GRID, ranks)
    return schedule_from_geometry(dec, cam, m)


def _run_frame(ranks: int, schedule, workers: int):
    """One direct-send frame through the parallel backend; returns
    (wall seconds, WorldResult)."""
    from benchmarks.perf.des_scale import _directsend_program
    from repro.vmpi import MPIWorld, ParallelConfig

    program = _directsend_program(schedule)
    world = MPIWorld.for_cores(ranks)
    t0 = time.perf_counter()
    res = world.run(program, parallel=ParallelConfig(workers=workers))
    return time.perf_counter() - t0, res


def bench_parallel_directsend_2048_w2(repeats: int = 1) -> dict:
    """The 2048-rank m=n frame through 2 workers (CI smoke envelope)."""
    from benchmarks.perf.suite import timed

    schedule = _schedule(2048, 2048)

    def run():
        return _run_frame(2048, schedule, workers=2)[1]

    samples, res = timed(run, repeats)
    return {
        "guard": True,
        "config": {"ranks": 2048, "workers": 2, "grid": GRID[0], "image": IMAGE},
        "samples": samples,
        "facts": {
            "wall_budget_s": PARALLEL_SMOKE_BUDGET_S,
            "sim_elapsed_s": float(res.elapsed_s),
            "messages": int(res.messages),
        },
    }


def bench_parallel_strong_scaling_8192(repeats: int = 1) -> dict:
    """The 8192-rank m=n frame at 1/2/4/8 workers, single timed run
    each (the schedule is built once, outside the timed region).

    The sample is the 4-worker wall clock; the full curve and the
    4-worker speedup over 1 worker ride along as facts.  The
    per-worker results are asserted identical before reporting — a
    scaling number for diverging results would be meaningless.
    """
    schedule = _schedule(SCALING_RANKS, SCALING_RANKS)
    curve: dict[str, float] = {}
    fingerprint = None
    sim_elapsed = 0.0
    messages = 0
    for w in SCALING_WORKERS:
        wall, res = _run_frame(SCALING_RANKS, schedule, workers=w)
        curve[str(w)] = wall
        fp = (float(res.elapsed_s), int(res.messages), int(res.bytes_sent))
        if fingerprint is None:
            fingerprint = fp
            sim_elapsed, messages = fp[0], fp[1]
        elif fp != fingerprint:
            raise AssertionError(
                f"worker-count variance at w={w}: {fp} != {fingerprint}"
            )
    return {
        "guard": False,  # four full 8192-rank frames: too slow to re-run per guard
        "config": {
            "ranks": SCALING_RANKS,
            "workers": list(SCALING_WORKERS),
            "grid": GRID[0],
            "image": IMAGE,
        },
        "samples": [curve["4"]],
        "facts": {
            "workers_wall_s": curve,
            "speedup_4w_vs_1w": curve["1"] / curve["4"],
            "sim_elapsed_s": sim_elapsed,
            "messages": messages,
        },
    }


def _bench_32k(m: int) -> dict:
    schedule = _schedule(RANKS_32K, m)
    wall, res = _run_frame(RANKS_32K, schedule, workers=2)
    return {
        "guard": False,  # minutes of wall clock: recorded, not re-timed per guard
        "config": {
            "ranks": RANKS_32K,
            "compositors": m,
            "workers": 2,
            "grid": GRID[0],
            "image": IMAGE,
        },
        "samples": [wall],
        "facts": {
            "wall_budget_s": PARALLEL_32K_WALL_BUDGET_S,
            "sim_elapsed_s": float(res.elapsed_s),
            "messages": int(res.messages),
            "schedule_messages": int(schedule.total_messages),
        },
    }


def bench_parallel_directsend_32768(repeats: int = 1) -> dict:
    """Full-fidelity 32768-rank m=n direct-send frame (2 workers)."""
    return _bench_32k(RANKS_32K)


def bench_parallel_directsend_32768_m2048(repeats: int = 1) -> dict:
    """The 32768-rank frame with compositors limited to m=2048.

    Also records the m=n / m=2048 simulated-time ratio, the mechanical
    (transport-only) side of the paper's Fig. 8 story: the DES replays
    injection/ejection serialization and hop latencies but not the
    phase-level contention law, so the ratio isolates the mechanical
    share of the compositor-limiting win (the contention law widens
    it; see ``model_vs_des_32k`` in benchmarks/).  Simulated time is
    host-independent, so the m=n side is read from its ledger entry.
    """
    from benchmarks.perf.ledger import load

    run = _bench_32k(LIMITED_M)
    full = load()["parallel_directsend_32768"]["facts"]["sim_elapsed_s"]
    run["facts"]["mechanical_limiting_ratio_32k"] = full / run["facts"]["sim_elapsed_s"]
    return run


PARALLEL_BENCHMARKS = {
    "parallel_directsend_2048_w2": bench_parallel_directsend_2048_w2,
    "parallel_strong_scaling_8192": bench_parallel_strong_scaling_8192,
    "parallel_directsend_32768": bench_parallel_directsend_32768,
    "parallel_directsend_32768_m2048": bench_parallel_directsend_32768_m2048,
}
