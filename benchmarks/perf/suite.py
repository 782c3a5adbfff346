"""The microbenchmark definitions.

Every benchmark is a function ``bench_*(repeats) -> dict`` returning::

    {"guard": bool, "config": {...}, "samples": [seconds, ...],
     "facts": {...}}

and :mod:`benchmarks.perf.ledger` turns it into a ``BENCH.json``
entry.  ``guard: True`` entries are re-timed by every guard run;
``guard: False`` entries are recorded once (too slow to re-run) and
kept as facts.

Workloads are deterministic (fixed seeds, synthetic fields) so the
committed numbers are reproducible on the machine that wrote them.
"""

from __future__ import annotations

import hashlib
import time
from statistics import median

import numpy as np

RENDER_GRID = 256  # acceptance config: 256^3 volume ...
RENDER_IMAGE = 512  # ... rendered to a 512^2 image
RENDER_STEP = 1.0


def timed(fn, repeats: int) -> tuple[list[float], object]:
    """Wall-clock seconds of ``repeats`` calls, and the last result.

    One untimed warmup call first: the initial call pays page faults
    on freshly built inputs and allocator growth, which would skew a
    median of few repeats.  Garbage collection is disabled around the
    timed calls (as :mod:`timeit` does): collector pauses triggered by
    *earlier* benchmarks' garbage would otherwise bleed into this
    one's numbers.
    """
    import gc

    fn()
    times = []
    result = None
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            result = fn()
            times.append(time.perf_counter() - t0)
    finally:
        if gc_was_enabled:
            gc.enable()
    return times, result


def synthetic_volume(n: int, seed: int = 1530) -> np.ndarray:
    """A smooth deterministic scalar field in [-1, 1], (n, n, n) float32.

    Smooth low-frequency structure keeps rays marching (semi-
    transparent regions) instead of terminating at the first sample,
    so the benchmark exercises the marching loop, not just early
    termination.
    """
    rng = np.random.default_rng(seed)
    ax = np.linspace(0.0, 2.0 * np.pi, n, dtype=np.float32)
    z = ax[:, None, None]
    y = ax[None, :, None]
    x = ax[None, None, :]
    phases = rng.uniform(0, 2 * np.pi, size=6).astype(np.float32)
    field = (
        np.sin(2 * x + phases[0]) * np.sin(3 * y + phases[1])
        + np.sin(2 * y + phases[2]) * np.sin(3 * z + phases[3])
        + np.sin(2 * z + phases[4]) * np.sin(3 * x + phases[5])
    ) / 3.0
    return field.astype(np.float32)


def _render_setup(n: int = RENDER_GRID, image: int = RENDER_IMAGE):
    from repro.render.camera import Camera
    from repro.render.transfer import TransferFunction
    from repro.render.volume import VolumeBlock

    data = synthetic_volume(n)
    camera = Camera.looking_at_volume(data.shape, width=image, height=image)
    tf = TransferFunction.supernova(-1.0, 1.0)
    return VolumeBlock.whole(data), camera, tf


def bench_render_kernel(repeats: int = 3) -> dict:
    """The ray-marching kernel on one whole volume: ~150K rays in
    4-sample windows, almost no padding.  Its facts also carry the
    block-vs-serial equivalence error (:func:`render_equivalence_maxdiff`)."""
    from repro.render.raycast import render_block

    block, camera, tf = _render_setup()
    samples, partial = timed(
        lambda: render_block(camera, block, tf, step=RENDER_STEP), repeats
    )
    return {
        "guard": True,
        "config": {"grid": RENDER_GRID, "image": RENDER_IMAGE, "step": RENDER_STEP},
        "samples": samples,
        "facts": {
            "ray_samples": int(partial.samples),
            "samples_per_second": partial.samples / median(samples),
            "serial_equivalence_maxdiff": render_equivalence_maxdiff(),
        },
    }


def bench_render_blocks_64(repeats: int = 5) -> dict:
    """The e2e frame's render stage: 64^3 in 64 ghosted blocks, 256^2.

    Cold ray plans (one frame ray table, 64 footprints) plus one
    ``render_block`` per block.  Every block is a single window whose
    rays leave after 1..~28 samples, so about half of the padded
    window's slots belong to no ray — the case the whole-volume entry
    above (no padding) cannot see.
    """
    from repro.core.plan import block_world_bounds
    from repro.data.synthetic import SupernovaModel
    from repro.render.camera import Camera
    from repro.render.decomposition import BlockDecomposition
    from repro.render.raycast import build_ray_plan, render_block
    from repro.render.transfer import TransferFunction
    from repro.render.volume import VolumeBlock

    grid = (64, 64, 64)
    field = SupernovaModel(grid, seed=3, time=0.5).field("vx")
    camera = Camera.looking_at_volume(
        grid, width=256, height=256, azimuth_deg=33.0, elevation_deg=21.0
    )
    tf = TransferFunction.supernova()
    blocks = []
    for b in BlockDecomposition(grid, 64).blocks():
        rs, rc, ghost_lo = b.ghost_read(grid, 1)
        data = field[rs[0]:rs[0] + rc[0], rs[1]:rs[1] + rc[1], rs[2]:rs[2] + rc[2]]
        blocks.append(
            (block_world_bounds(b, grid), VolumeBlock(data, grid, b.start, b.count, ghost_lo))
        )

    def frame():
        framed = camera.with_frame_rays()
        samples = 0
        for (lo, hi), vb in blocks:
            plan = build_ray_plan(framed, lo, hi, RENDER_STEP)
            partial = render_block(camera, vb, tf, RENDER_STEP, plan=plan)
            if partial is not None:
                samples += partial.samples
        return samples

    samples, ray_samples = timed(frame, repeats)
    return {
        "guard": True,
        "config": {"grid": 64, "blocks": 64, "ghost": 1, "image": 256, "step": RENDER_STEP},
        "samples": samples,
        "facts": {
            "ray_samples": int(ray_samples),
            "samples_per_second": ray_samples / median(samples),
        },
    }


def render_equivalence_maxdiff() -> float:
    """Max |compacted - serial reference| over the benchmark frame.

    The serial path composites the same kernel's whole-volume partial
    onto the canvas; agreement is required to the suite's existing
    tolerance (5e-3, the early-termination error budget).
    """
    from repro.render.image import blank_image, composite_over
    from repro.render.raycast import render_block, render_volume_serial

    block, camera, tf = _render_setup(n=96, image=256)
    partial = render_block(camera, block, tf, step=RENDER_STEP)
    img = composite_over(blank_image(camera.width, camera.height), [partial])
    ref = render_volume_serial(camera, block.data, tf, step=RENDER_STEP)
    return float(np.abs(img - ref).max())


def bench_composite(repeats: int = 5) -> dict:
    """Span-based compositing of a deep fragment list on a 512^2 canvas."""
    from repro.render.image import PartialImage, blank_image, composite_over

    rng = np.random.default_rng(7)
    size = 512
    partials = []
    for i in range(48):
        w = int(rng.integers(96, 256))
        h = int(rng.integers(96, 256))
        x0 = int(rng.integers(0, size - w))
        y0 = int(rng.integers(0, size - h))
        rgba = rng.random((h, w, 4), dtype=np.float32)
        rgba[..., :3] *= rgba[..., 3:4]  # premultiplied
        partials.append(PartialImage((x0, y0, w, h), rgba, depth=float(rng.random())))
    canvas = blank_image(size, size)
    samples, _ = timed(lambda: composite_over(canvas, partials), repeats)
    return {
        "guard": True,
        "config": {"canvas": size, "fragments": len(partials)},
        "samples": samples,
        "facts": {"fragments_per_second": len(partials) / median(samples)},
    }


def bench_handoff_tiles_256(repeats: int = 5) -> dict:
    """The sort-last hand-off in the small-tile regime: direct-send's
    fan-out, the owners' tile blends and the root gather of one frame.

    48^3 in 256 ghosted blocks, 96^2, m = n = 256 (6 x 6 = 36-pixel
    tiles, ~17 pieces per tile) — ``timeseries_io_256``'s frame.  The
    blocks are rendered once, untimed; a sample is one
    ``MPIWorld.run`` of the compositing program on real pieces, so
    per-piece overhead (crop, sizing, copies, one blend per tile) is
    what it sees, where ``composite_over``'s 512^2 canvas is NumPy-bound.
    """
    from repro.compositing.directsend import assemble_final_image, direct_send_compose
    from repro.compositing.schedule import schedule_from_geometry
    from repro.core.plan import block_world_bounds
    from repro.data.synthetic import SupernovaModel
    from repro.render.camera import Camera
    from repro.render.decomposition import BlockDecomposition
    from repro.render.raycast import build_ray_plan, render_block
    from repro.render.transfer import TransferFunction
    from repro.render.volume import VolumeBlock
    from repro.vmpi import MPIWorld

    grid, ranks, image = (48, 48, 48), 256, 96
    field = SupernovaModel(grid, seed=1530, time=0.3).field("vx")
    camera = Camera.looking_at_volume(
        grid, width=image, height=image, azimuth_deg=33.0, elevation_deg=21.0
    )
    tf = TransferFunction.supernova()
    decomposition = BlockDecomposition(grid, ranks)
    framed = camera.with_frame_rays()
    partials = []
    for b in decomposition.blocks():
        rs, rc, ghost_lo = b.ghost_read(grid, 1)
        data = field[rs[0]:rs[0] + rc[0], rs[1]:rs[1] + rc[1], rs[2]:rs[2] + rc[2]]
        lo, hi = block_world_bounds(b, grid)
        partials.append(render_block(
            camera, VolumeBlock(data, grid, b.start, b.count, ghost_lo), tf, RENDER_STEP,
            plan=build_ray_plan(framed, lo, hi, RENDER_STEP),
        ))
    schedule = schedule_from_geometry(decomposition, camera, ranks, cache=False)

    def program(ctx):
        tile = yield from direct_send_compose(ctx, partials[ctx.rank], schedule)
        return (yield from assemble_final_image(ctx, tile, schedule))

    samples, result = timed(lambda: MPIWorld.for_cores(ranks).run(program), repeats)
    pieces = sum(m.src != schedule.compositor_rank(m.tile) for m in schedule.messages)
    return {
        "guard": True,
        "config": {"grid": 48, "ranks": ranks, "image": image, "tile_pixels": 36},
        "samples": samples,
        "facts": {
            "messages": int(result.messages),
            "bytes": int(result.bytes_sent),
            "pieces_per_tile": pieces / ranks,
            "image_sha256_8": hashlib.sha256(result.values[0].tobytes()).hexdigest()[:8],
        },
    }


def bench_two_phase_plan(repeats: int = 5) -> dict:
    """Two-phase collective read planning for a 128^3 netCDF variable."""
    from repro.pio.hints import IOHints
    from repro.pio.twophase import plan_two_phase
    from repro.render.decomposition import BlockDecomposition

    n = 128
    nprocs = 256
    itemsize = 4
    grid = (n, n, n)
    dec = BlockDecomposition(grid, nprocs)
    # Per-rank subarray byte ranges of a row-major (z, y, x) variable.
    intervals = []
    for b in dec.blocks():
        (z0, y0, x0), (cz, cy, cx) = b.start, b.count
        for z in range(z0, z0 + cz):
            for y in range(y0, y0 + cy):
                off = ((z * n + y) * n + x0) * itemsize
                intervals.append((off, cx * itemsize))
    hints = IOHints(cb_buffer_size=1 << 20, cb_nodes=32)
    file_size = n * n * n * itemsize

    def plan():
        return plan_two_phase(intervals, hints, file_size)

    samples, plan_result = timed(plan, repeats)
    return {
        "guard": True,
        "config": {"grid": n, "nprocs": nprocs, "cb_nodes": 32},
        "samples": samples,
        "facts": {"physical_accesses": int(plan_result.num_accesses)},
    }


def bench_collective_read_blocks(repeats: int = 5) -> dict:
    """The whole I/O stage: one 128^3 VH-1 record variable read by 512 ranks.

    Timed region = what every functional frame runs first: per-rank
    byte ranges, the two-phase plan, the physical reads, phase-2
    assembly and decode.  The file (five interleaved variables, 42 MB)
    is built once, untimed.
    """
    from repro.data import SupernovaModel, write_vh1_netcdf
    from repro.pio import IOHints, NetCDFHandle, collective_read_blocks
    from repro.render.decomposition import BlockDecomposition

    n = 128
    nprocs = 512
    grid = (n, n, n)
    handle = NetCDFHandle(write_vh1_netcdf(SupernovaModel(grid, seed=11, time=0.5)), "vx")
    blocks = [(b.start, b.count) for b in BlockDecomposition(grid, nprocs).blocks()]
    hints = IOHints()

    samples, (_arrays, report) = timed(
        lambda: collective_read_blocks(handle, blocks, hints), repeats
    )
    return {
        "guard": True,
        "config": {"grid": n, "nprocs": nprocs, "variables": 5},
        "samples": samples,
        "facts": {
            "physical_accesses": int(report.num_accesses),
            "density": report.density,
            "read_MBps": report.requested_bytes / median(samples) / 1e6,
        },
    }


#: What a user pays to get a dataset: a fresh interpreter imports
#: ``repro.data``, synthesizes a 64^3 model and writes its netCDF file,
#: then reports its own peak RSS and whether scipy was loaded.
_DATASET_COLD = """
import json, resource, sys
import repro.data
from repro.data import SupernovaModel, write_vh1_netcdf
write_vh1_netcdf(SupernovaModel((64, 64, 64), seed=1530, time=0.5))
print(json.dumps({
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "scipy_loaded": "scipy" in sys.modules,
}))
"""


def run_fresh(script: str) -> dict:
    """Run ``script`` in a fresh interpreter on this checkout's ``repro``;
    the JSON object it prints."""
    import json
    import os
    import subprocess
    import sys

    import repro

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, check=True, capture_output=True, text=True,
    )
    return json.loads(run.stdout)


def bench_dataset_cold_64(repeats: int = 2) -> dict:
    """One cold dataset build, interpreter start and imports included:
    the set-up every CLI render and functional e2e workload pays."""
    samples, child = timed(lambda: run_fresh(_DATASET_COLD), repeats)
    return {
        "guard": True,
        "config": {"grid": 64, "variables": 5, "format": "netcdf"},
        "samples": samples,
        "facts": child,
    }


#: name -> bench function
BENCHMARKS = {
    "render_kernel_compacted": bench_render_kernel,
    "render_blocks_64": bench_render_blocks_64,
    "composite_over": bench_composite,
    "handoff_tiles_256": bench_handoff_tiles_256,
    "two_phase_plan": bench_two_phase_plan,
    "collective_read_blocks_128": bench_collective_read_blocks,
    "dataset_cold_64": bench_dataset_cold_64,
}


def _register_des() -> None:
    # The other benches live in their own modules; imported lazily at
    # the end so ``suite`` stays importable on its own (they import
    # ``timed`` from here).
    from benchmarks.perf.compositing_shootout import COMPOSITING_BENCHMARKS
    from benchmarks.perf.des_scale import DES_BENCHMARKS
    from benchmarks.perf.farm_serve import FARM_BENCHMARKS
    from benchmarks.perf.fault_overhead import FAULT_BENCHMARKS
    from benchmarks.perf.parallel_scale import PARALLEL_BENCHMARKS
    from benchmarks.perf.progressive_refine import PROGRESSIVE_BENCHMARKS
    from benchmarks.perf.timeseries_pipeline import TIMESERIES_BENCHMARKS

    BENCHMARKS.update(COMPOSITING_BENCHMARKS)
    BENCHMARKS.update(DES_BENCHMARKS)
    BENCHMARKS.update(FARM_BENCHMARKS)
    BENCHMARKS.update(FAULT_BENCHMARKS)
    BENCHMARKS.update(PARALLEL_BENCHMARKS)
    BENCHMARKS.update(PROGRESSIVE_BENCHMARKS)
    BENCHMARKS.update(TIMESERIES_BENCHMARKS)


_register_des()
