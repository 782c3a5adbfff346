"""Pipelined time-series campaign: wall-clock guard + overlap study.

``timeseries_pipeline`` times the functional miniature campaign (4
netCDF time steps through the depth-1 pipelined driver, 8 simulated
cores).  This is the end-to-end cost of the prefetch machinery itself —
plan/issue/wait split, campaign DES, span bookkeeping — so it must not
drift up as the subsystem grows.

Its facts carry the *simulated-makespan* overlap study at paper scale:
8 frames of the 1120^3 dataset on 1024 cores reading raw (io 9.4 s,
render+composite 6.3 s per frame — I/O-bound but with compute worth
hiding).  The study records the sequential campaign time and the
depth-1/2 pipelined makespans; the headline ``simulated_speedup``
(depth 1 vs sequential) is asserted >= 1.3x — the acceptance bar for
this subsystem — and ``depth2_gain_pct`` documents why deeper prefetch
buys ~nothing on a single shared store.  It takes well under a
millisecond of host time, so it is checked on every run, not timed.
"""

from __future__ import annotations

OVERLAP_FRAMES = 8
OVERLAP_DATASET = "1120"
OVERLAP_CORES = 1024


def overlap_study() -> dict:
    """The paper-scale depth study (simulated seconds only)."""
    from repro.core.timeseries import simulate_pipeline
    from repro.model.pipeline import DATASETS, FrameModel

    est = FrameModel(DATASETS[OVERLAP_DATASET]).estimate(OVERLAP_CORES, io_mode="raw")
    io = [est.io.seconds] * OVERLAP_FRAMES
    rc = [est.render.seconds + est.composite.seconds] * OVERLAP_FRAMES
    spans = [simulate_pipeline(io, rc, d).makespan_s for d in (0, 1, 2)]
    speedup = spans[0] / spans[1]
    # The acceptance bar: the I/O-bound animation must show >= 1.3x at
    # depth 1.  A violation means the schedule (not this host) broke.
    assert speedup >= 1.3, f"depth-1 simulated speedup {speedup:.3f} < 1.3"
    return {
        "dataset": OVERLAP_DATASET,
        "cores": OVERLAP_CORES,
        "io_mode": "raw",
        "frames": OVERLAP_FRAMES,
        "io_s_per_frame": io[0],
        "compute_s_per_frame": rc[0],
        "sequential_s": spans[0],
        "depth1_makespan_s": spans[1],
        "depth2_makespan_s": spans[2],
        "simulated_speedup": speedup,
        "depth2_gain_pct": 100.0 * (spans[1] - spans[2]) / spans[1],
    }


def bench_timeseries_pipeline(repeats: int = 3) -> dict:
    from statistics import median

    from benchmarks.perf.suite import timed
    from repro.core import ParallelVolumeRenderer, PipelinedTimeSeriesRenderer
    from repro.data import SupernovaModel, write_vh1_netcdf
    from repro.pio import IOHints, NetCDFHandle
    from repro.render import Camera, TransferFunction
    from repro.vmpi import MPIWorld

    grid = (12, 12, 12)
    handles = [
        NetCDFHandle(write_vh1_netcdf(SupernovaModel(grid, seed=5, time=0.3 + 0.2 * t)), "vx")
        for t in range(4)
    ]
    camera = Camera.looking_at_volume(grid, width=32, height=32)
    renderer = ParallelVolumeRenderer(
        MPIWorld.for_cores(8), camera, TransferFunction.supernova(), step=0.9,
        hints=IOHints(cb_buffer_size=4096, cb_nodes=2),
    )
    pipelined = PipelinedTimeSeriesRenderer(renderer, prefetch_depth=1)

    samples, result = timed(
        lambda: pipelined.render(handles, orbit_degrees_per_frame=20.0), repeats
    )
    assert result.accounting_failures() == []
    return {
        "guard": True,
        "config": {
            "frames": len(handles),
            "grid": grid[0],
            "cores": 8,
            "image": 32,
            "prefetch_depth": 1,
        },
        "samples": samples,
        "facts": {
            "frames_per_second": len(handles) / median(samples),
            "simulated_makespan_s": result.makespan_s,
            "simulated_sequential_s": result.sequential_s,
            "overlap_study": overlap_study(),
        },
    }


TIMESERIES_BENCHMARKS = {"timeseries_pipeline": bench_timeseries_pipeline}
